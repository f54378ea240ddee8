// Tests of the benchmark's own code: nearest-rank percentiles and the
// ">= 10 samples beyond" reporting rule, ratio bases, the span recorder's
// self time, and generator determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "json/json.hpp"

#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankConvention) {
  // Values and beyond-counts agree with obs::nearest_rank's rank.
  EXPECT_EQ(percentile({}, 0.5).value, 0.0);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  EXPECT_EQ(percentile({4.0}, 0.99).value, 4.0);
  EXPECT_EQ(percentile({2.0, 1.0}, 0.5).value, 1.0);
  EXPECT_EQ(percentile({2.0, 1.0}, 0.9).value, 2.0);
  EXPECT_EQ(percentile(one_to(100), 0.9).value, 90.0);
  // 0.99 * 1000 is 990 exactly; the rank must not round up to 991.
  EXPECT_EQ(percentile(one_to(1000), 0.99).value, 990.0);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(percentile(one_to(1001), 0.99).value, 991.0);
  EXPECT_EQ(percentile(one_to(10), 0.0).value, 1.0);
  EXPECT_EQ(percentile(one_to(10), 1.0).value, 10.0);
  EXPECT_EQ(samples_beyond(10, 1.0), 0u);
}

TEST(Percentile, ValueAndSampleCounts) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());  // input order must not matter
  Percentile p = percentile(v, 0.9);
  EXPECT_EQ(p.value, 180.0);
  EXPECT_EQ(p.samples, 200u);
  EXPECT_EQ(p.beyond, 20u);
  EXPECT_TRUE(p.reportable);
  EXPECT_EQ(median(one_to(5)), 3.0);
  EXPECT_EQ(median(one_to(4)), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p90 needs 100 samples: rank 90 leaves exactly 10 beyond.
  EXPECT_FALSE(percentile(one_to(99), 0.9).reportable);
  EXPECT_EQ(percentile(one_to(99), 0.9).beyond, 9u);
  EXPECT_TRUE(percentile(one_to(100), 0.9).reportable);
  // p99 needs 1000; p50 needs 20.
  EXPECT_FALSE(percentile(one_to(999), 0.99).reportable);
  EXPECT_TRUE(percentile(one_to(1000), 0.99).reportable);
  EXPECT_FALSE(percentile(one_to(19), 0.5).reportable);
  EXPECT_TRUE(percentile(one_to(20), 0.5).reportable);
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_EQ(samples_beyond(1024, 0.99), 10u);
}

TEST(RatioTest, CarriesItsBase) {
  Ratio r{580.0, 10000.0};
  EXPECT_DOUBLE_EQ(r.value(), 0.058);
  EXPECT_EQ(r.describe(), "580/10000");
  Ratio empty;
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(empty.describe(), "0/0");
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer t;
  int root = t.begin("root", 7);
  int child = t.begin("child", 7);
  t.end(child);
  t.span("leaf", 7, [] {});
  int leaf = t.last_closed();
  t.end(root);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[2].parent, root);
  EXPECT_EQ(t.spans()[2].op, 7u);
  EXPECT_NEAR(t.self_us(root),
              t.duration_us(root) - t.duration_us(child) - t.duration_us(leaf), 1e-9);
  std::map<std::string, double> self = t.self_since(root);
  EXPECT_NEAR(self["root"] + self["child"] + self["leaf"], t.duration_us(root), 1e-6);
  EXPECT_THROW(t.end(root), std::logic_error);
  std::string jsonl = t.to_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
}

TEST(TracerTest, CloseAllAfterThrow) {
  Tracer t;
  int root = t.begin("root", 1);
  EXPECT_THROW(t.span("boom", 1, []() -> int { throw std::runtime_error("x"); }),
               std::runtime_error);
  t.begin("open", 1);
  t.close_all();
  EXPECT_GE(t.duration_us(root), 0.0);
  EXPECT_NO_THROW(t.end(t.begin("next", 2)));
}

TEST(Generators, SameSeedSameBytes) {
  EXPECT_EQ(campaign_json(sharded_campaign(5)), campaign_json(sharded_campaign(5)));
  EXPECT_NE(campaign_json(sharded_campaign(5)), campaign_json(sharded_campaign(6)));
  EXPECT_EQ(contended_campaign_json(5), contended_campaign_json(5));
  EXPECT_NE(contended_campaign_json(5), contended_campaign_json(6));
  EXPECT_EQ(commands_json(motion_session(5)), commands_json(motion_session(5)));
  EXPECT_NE(commands_json(motion_session(5)), commands_json(motion_session(6)));
}

TEST(Generators, WorkloadShapes) {
  rabit::fleet::CampaignSpec sharded = sharded_campaign(3);
  ASSERT_EQ(sharded.streams.size(), kShardedStreams);
  for (const rabit::fleet::CampaignStreamSpec& s : sharded.streams) {
    EXPECT_EQ(s.commands.size(), kShardedCommandsPerStream);
  }
  rabit::fleet::CampaignSpec contended =
      rabit::fleet::load_campaign(rabit::json::parse(contended_campaign_json(3)));
  ASSERT_EQ(contended.streams.size(), kContendedStreams);
  std::size_t scripts = 0;
  for (const rabit::fleet::CampaignStreamSpec& s : contended.streams) {
    scripts += s.script.empty() ? 0 : 1;
  }
  EXPECT_EQ(scripts, (kContendedStreams + 4) / 5);  // every fifth stream is a script
  EXPECT_GT(motion_session(3).size(), 50u);
}

}  // namespace
}  // namespace perfbench
