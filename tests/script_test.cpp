// Lab-script DSL tests: lexer, parser, interpreter, and workflow library.
#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "script/interp.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

namespace rabit::script {
namespace {

namespace ids = rabit::sim::deck_ids;

// --- lexer -------------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  auto tokens = tokenize("let x = 1.5 # comment\nfoo(\"bar\")");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Keyword);
  EXPECT_EQ(tokens[0].text, "let");
  EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[2].text, "=");
  EXPECT_EQ(tokens[3].kind, TokenKind::Number);
  EXPECT_DOUBLE_EQ(tokens[3].number, 1.5);
  EXPECT_EQ(tokens[4].kind, TokenKind::Identifier);  // foo — comment skipped
  EXPECT_EQ(tokens[4].line, 2);
  EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(Lexer, StringsAndEscapes) {
  auto tokens = tokenize(R"("a\nb" 'c')");
  EXPECT_EQ(tokens[0].kind, TokenKind::String);
  EXPECT_EQ(tokens[0].text, "a\nb");
  EXPECT_EQ(tokens[1].text, "c");
}

TEST(Lexer, TwoCharOperators) {
  auto tokens = tokenize("a == b != c <= d >= e");
  std::vector<std::string> ops;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::Punct) ops.push_back(t.text);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"==", "!=", "<=", ">="}));
}

TEST(Lexer, Errors) {
  EXPECT_THROW(static_cast<void>(tokenize("\"unterminated")), ScriptError);
  EXPECT_THROW(static_cast<void>(tokenize("@")), ScriptError);
  EXPECT_THROW(static_cast<void>(tokenize("\"bad\\q\"")), ScriptError);
  try {
    static_cast<void>(tokenize("ok\nok\n  @"));
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 3);  // two spaces, then the bad character
    EXPECT_NE(std::string(e.what()).find("line 3, column 3"), std::string::npos);
  }
}

TEST(Lexer, TokenPositions) {
  std::vector<Token> tokens = tokenize("let x = 12\n  y = x");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].line, 1);   // let
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].column, 5);  // x
  EXPECT_EQ(tokens[2].column, 7);  // =
  EXPECT_EQ(tokens[3].column, 9);  // 12
  EXPECT_EQ(tokens[4].line, 2);   // y
  EXPECT_EQ(tokens[4].column, 3);
}

TEST(Lexer, ErrorColumnsOnLaterTokens) {
  try {
    static_cast<void>(tokenize("let s = \"oops"));
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 9);  // the opening quote
  }
}

// --- parser -------------------------------------------------------------------

TEST(Parser, AcceptsFullGrammar) {
  EXPECT_NO_THROW(parse(R"(
    let x = 1 + 2 * 3
    x = x - 1
    def helper(a, b) {
        if (a > b) { return a }
        else if (a == b) { return 0 }
        else { return b }
    }
    while (x < 10 and true) { x = x + 1 }
    let list = [1, 2, [3, 4]]
    let v = list[2][0]
    let s = "text" + "more"
    let neg = -x
    let flag = not (x >= 3) or false
  )"));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse("let = 3"), ScriptError);
  EXPECT_THROW(parse("if x { }"), ScriptError);          // missing parens
  EXPECT_THROW(parse("while (true) {"), ScriptError);    // unterminated block
  EXPECT_THROW(parse("def f( { }"), ScriptError);
  EXPECT_THROW(parse("x ="), ScriptError);
  EXPECT_THROW(parse("1 +"), ScriptError);
  EXPECT_THROW(parse("foo(1,"), ScriptError);
  EXPECT_THROW(parse("a.b"), ScriptError);  // method call needs parens
}

TEST(Parser, ErrorPositions) {
  try {
    (void)parse("let x = 1\nif x { }");
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 4);  // expected '(' at the condition identifier
  }
  try {
    (void)parse("let ok = 1\nlet = 3");
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 5);  // the '=' where a name was expected
  }
}

/// Expects `source` to be refused with a ScriptError at `line`.
void expect_script_error_at(const std::string& source, int line) {
  try {
    static_cast<void>(parse(source));
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), line);
  }
}

TEST(Parser, DeepNestingIsAScriptErrorNotACrash) {
  // Each of these 100 000-deep inputs once overflowed the stack.
  const int n = 100000;
  expect_script_error_at("let a = 1\nx = " + std::string(n, '(') + "1" + std::string(n, ')'), 2);
  expect_script_error_at("x = " + std::string(n, '-') + "1", 1);
  std::string chain = "x = 1";
  for (int i = 0; i < n; ++i) chain += "+1";
  expect_script_error_at(chain, 1);
  std::string blocks;
  for (int i = 0; i < n; ++i) blocks += "if (true) {\n";
  // Each nested `if` opens two levels (the statement and its block), so the
  // condition on line 128 is the first thing past the limit.
  expect_script_error_at(blocks, 128);
  std::string else_ifs = "if (true) { }";
  for (int i = 0; i < n; ++i) else_ifs += " else if (true) { }";
  expect_script_error_at(else_ifs, 1);
  // Moderate nesting is untouched.
  EXPECT_NO_THROW(static_cast<void>(parse("x = " + std::string(100, '(') + "1" +
                                          std::string(100, ')') + " + " + std::string(100, '-') +
                                          "2")));
}

// --- interpreter ----------------------------------------------------------------

class InterpTest : public ::testing::Test {
 protected:
  json::Value run_and_get(const std::string& source, const std::string& global) {
    RecordingSink sink;
    Interpreter interp(&sink);
    interp.set_global(global, json::Value());
    interp.run(source);
    return interp.global(global);
  }
};

TEST_F(InterpTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(run_and_get("out = 2 + 3 * 4 - 1", "out").as_double(), 13.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = (2 + 3) * 4", "out").as_double(), 20.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = 7 / 2", "out").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(run_and_get("out = 7 % 2", "out").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = -3 + 1", "out").as_double(), -2.0);
}

TEST_F(InterpTest, ComparisonAndLogic) {
  EXPECT_TRUE(run_and_get("out = 1 < 2 and 3 >= 3", "out").as_bool());
  EXPECT_TRUE(run_and_get("out = not (1 == 2) or false", "out").as_bool());
  EXPECT_FALSE(run_and_get("out = \"a\" == \"b\"", "out").as_bool());
  EXPECT_TRUE(run_and_get("out = \"a\" != \"b\"", "out").as_bool());
}

TEST_F(InterpTest, ShortCircuitEvaluation) {
  // The rhs would divide by zero; short-circuiting must skip it.
  EXPECT_FALSE(run_and_get("let x = 0\nout = x != 0 and 1 / x > 0", "out").as_bool());
  EXPECT_TRUE(run_and_get("let x = 0\nout = x == 0 or 1 / x > 0", "out").as_bool());
}

TEST_F(InterpTest, ListsAndIndexing) {
  EXPECT_DOUBLE_EQ(run_and_get("let l = [10, 20, 30]\nout = l[1]", "out").as_double(), 20.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = len([1, 2, 3])", "out").as_double(), 3.0);
  EXPECT_THROW(run_and_get("let l = [1]\nout = l[5]", "out"), ScriptError);
  // The range check runs before the index is converted: a huge index used
  // to wrap around to l[0], and a negative fraction is rejected, not rounded.
  EXPECT_THROW(run_and_get("let l = [10, 20, 30]\nout = l[1e300]", "out"), ScriptError);
  EXPECT_THROW(run_and_get("let l = [10, 20, 30]\nout = l[-0.5]", "out"), ScriptError);
  EXPECT_DOUBLE_EQ(run_and_get("let l = [10, 20, 30]\nout = l[1.5]", "out").as_double(), 20.0);
}

TEST_F(InterpTest, ObjectIndexing) {
  RecordingSink sink;
  Interpreter interp(&sink);
  interp.set_global("locations", json::parse(R"({"grid": {"pickup": [1, 2, 3]}})"));
  interp.set_global("out", json::Value());
  interp.run("out = locations[\"grid\"][\"pickup\"][2]");
  EXPECT_DOUBLE_EQ(interp.global("out").as_double(), 3.0);
  EXPECT_THROW(interp.run("out = locations[\"nope\"]"), ScriptError);
}

TEST_F(InterpTest, WhileLoop) {
  EXPECT_DOUBLE_EQ(
      run_and_get("let i = 0\nlet sum = 0\nwhile (i < 5) { sum = sum + i\ni = i + 1 }\nout = sum",
                  "out")
          .as_double(),
      10.0);
}

TEST_F(InterpTest, InfiniteLoopGuard) {
  EXPECT_THROW(run_and_get("while (true) { let x = 1 }\nout = 0", "out"), ScriptError);
}

TEST_F(InterpTest, FunctionsAndReturn) {
  EXPECT_DOUBLE_EQ(
      run_and_get("def sq(x) { return x * x }\nout = sq(4) + sq(3)", "out").as_double(), 25.0);
  EXPECT_DOUBLE_EQ(
      run_and_get("def mx(a, b) { if (a > b) { return a }\nreturn b }\nout = mx(3, 9)", "out")
          .as_double(),
      9.0);
  // Bare return yields null; arity mismatch throws.
  EXPECT_TRUE(run_and_get("def f() { return }\nout = f()", "out").is_null());
  EXPECT_THROW(run_and_get("def f(a) { return a }\nout = f()", "out"), ScriptError);
  EXPECT_THROW(run_and_get("out = mystery(1)", "out"), ScriptError);
}

TEST_F(InterpTest, FunctionsDoNotSeeCallerLocals) {
  EXPECT_THROW(run_and_get("def f() { return hidden }\nlet hidden = 1\nout = f()", "out"),
               ScriptError);
}

TEST_F(InterpTest, Builtins) {
  EXPECT_DOUBLE_EQ(run_and_get("out = abs(-4)", "out").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = min(3, 7)", "out").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(run_and_get("out = max(3, 7)", "out").as_double(), 7.0);
}

TEST_F(InterpTest, RuntimeErrors) {
  EXPECT_THROW(run_and_get("out = 1 / 0", "out"), ScriptError);
  EXPECT_THROW(run_and_get("out = unknown_var", "out"), ScriptError);
  EXPECT_THROW(run_and_get("undeclared = 5\nout = 0", "out"), ScriptError);
  EXPECT_THROW(run_and_get("out = \"a\" + 1", "out"), ScriptError);
  // A non-finite result would record an argument that serializes as null.
  for (const char* overflow : {"1e308 + 1e308", "1e308 * 10", "-1e308 - 1e308", "1e308 / 0.5"}) {
    try {
      run_and_get(std::string("let x = 1\nout = ") + overflow, "out");
      ADD_FAILURE() << overflow << ": expected ScriptError";
    } catch (const ScriptError& e) {
      EXPECT_EQ(e.line(), 2) << overflow;
    }
  }
}

TEST_F(InterpTest, RunawayRecursionIsAScriptError) {
  try {
    run_and_get("def f(n) {\n  return f(n)\n}\nout = f(1)", "out");
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(e.line(), 2);  // the recursive call
  }
  // Bounded recursion well inside the limit still runs.
  EXPECT_DOUBLE_EQ(
      run_and_get("def down(n) {\n  if (n == 0) { return 0 }\n  return 1 + down(n - 1)\n}\n"
                  "out = down(100)",
                  "out")
          .as_double(),
      100.0);
}

TEST(Interp, RunawayRecursionInACampaignScriptIsAScriptError) {
  // A campaign stream's script is recorded inside Fleet::run; runaway
  // recursion there once overflowed the stack in record_workflow.
  fleet::CampaignSpec spec = fleet::load_campaign(json::parse(
      R"json({"seed": 3, "streams": [{"name": "loop", "script": "def f(n) { return f(n) }\nf(1)"}]})json"));
  EXPECT_THROW(static_cast<void>(fleet::Fleet::run(spec)), ScriptError);
}

TEST(Interp, DeviceCommandsGoToSink) {
  RecordingSink sink;
  Interpreter interp(&sink);
  interp.register_device("viperx");
  interp.run(R"(
    viperx.move_to(position=[0.1, 0.2, 0.3])
    viperx.close_gripper()
  )");
  ASSERT_EQ(sink.commands().size(), 2u);
  const dev::Command& move = sink.commands()[0];
  EXPECT_EQ(move.device, "viperx");
  EXPECT_EQ(move.action, "move_to");
  EXPECT_EQ(move.source_line, 2);
  EXPECT_DOUBLE_EQ(move.args.as_object().at("position").as_array()[2].as_double(), 0.3);
  EXPECT_EQ(sink.commands()[1].action, "close_gripper");
}

TEST(Interp, DevicePassedAsArgumentBecomesId) {
  RecordingSink sink;
  Interpreter interp(&sink);
  interp.register_device("pump");
  interp.register_device("vial_1");
  interp.run("pump.dose_solvent(volume=2, target=vial_1)");
  EXPECT_EQ(sink.commands()[0].args.as_object().at("target").as_string(), "vial_1");
}

TEST(Interp, DeviceReferencesCanBeParameters) {
  RecordingSink sink;
  Interpreter interp(&sink);
  interp.register_device("viperx");
  interp.register_device("ned2");
  interp.run(R"(
    def park(arm) { arm.go_sleep() }
    park(viperx)
    park(ned2)
  )");
  ASSERT_EQ(sink.commands().size(), 2u);
  EXPECT_EQ(sink.commands()[0].device, "viperx");
  EXPECT_EQ(sink.commands()[1].device, "ned2");
}

TEST(Interp, CommandArgumentsMustBeNamed) {
  RecordingSink sink;
  Interpreter interp(&sink);
  interp.register_device("viperx");
  EXPECT_THROW(interp.run("viperx.move_to([1,2,3])"), ScriptError);
}

TEST(Interp, MethodCallOnNonDeviceFails) {
  RecordingSink sink;
  Interpreter interp(&sink);
  EXPECT_THROW(interp.run("let x = 3\nx.do_thing()"), ScriptError);
}

TEST(Interp, SinkResultFeedsBackIntoScript) {
  // A sink returning a measurement drives the while loop, like Fig. 1(b).
  class CountingSink : public CommandSink {
   public:
    json::Value on_command(const dev::Command& cmd) override {
      if (cmd.action == "measure_solubility") {
        return json::Value(++measures >= 3 ? 1.0 : 0.2);
      }
      return json::Value();
    }
    int measures = 0;
  };
  CountingSink sink;
  Interpreter interp(&sink);
  interp.register_device("camera");
  interp.set_global("rounds", json::Value());
  interp.run(R"(
    let n = 0
    let m = camera.measure_solubility(target="vial_1")
    while (m < 0.95) {
        n = n + 1
        m = camera.measure_solubility(target="vial_1")
    }
    rounds = n
  )");
  EXPECT_DOUBLE_EQ(interp.global("rounds").as_double(), 2.0);
  EXPECT_EQ(sink.measures, 3);
}

TEST(Interp, ExperimentHaltedPropagates) {
  class RefusingSink : public CommandSink {
   public:
    json::Value on_command(const dev::Command&) override {
      throw ExperimentHalted("rule G1 fired");
    }
  };
  RefusingSink sink;
  Interpreter interp(&sink);
  interp.register_device("viperx");
  EXPECT_THROW(interp.run("viperx.go_home()"), ExperimentHalted);
}

// --- workflow library ---------------------------------------------------------

TEST(Workflows, LocationsTableCoversAllSitesAndArms) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  json::Value table = locations_table(backend);
  for (const sim::SiteBinding& site : backend.sites()) {
    const json::Value* entry = table.find(site.name);
    ASSERT_NE(entry, nullptr) << site.name;
    for (const char* arm : {ids::kViperX, ids::kNed2}) {
      const json::Value* coords = entry->find(arm);
      ASSERT_NE(coords, nullptr);
      const json::Array& pickup = coords->as_object().at("pickup").as_array();
      const json::Array& safe = coords->as_object().at("safe").as_array();
      ASSERT_EQ(pickup.size(), 3u);
      EXPECT_DOUBLE_EQ(safe[2].as_double(), pickup[2].as_double() + 0.22);
    }
  }
}

TEST(Workflows, TestbedWorkflowRecordsPrimitives) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  auto commands = record_workflow(backend, testbed_workflow_source());
  EXPECT_GT(commands.size(), 30u);
  // Primitive style only — no composite pick/place commands.
  for (const dev::Command& c : commands) {
    EXPECT_NE(c.action, "pick_object");
    EXPECT_NE(c.action, "place_object");
  }
  // Both arms appear and the dosing device is exercised.
  auto count_device = [&](const char* id) {
    return std::count_if(commands.begin(), commands.end(),
                         [&](const dev::Command& c) { return c.device == id; });
  };
  EXPECT_GT(count_device(ids::kViperX), 10);
  EXPECT_GT(count_device(ids::kNed2), 5);
  EXPECT_GE(count_device(ids::kDosingDevice), 5);
}

TEST(Workflows, SolubilityWorkflowUsesComposites) {
  sim::LabBackend backend(sim::production_profile());
  sim::build_hein_production_deck(backend);
  auto commands = record_workflow(backend, solubility_workflow_source());
  bool has_pick = false;
  bool has_measure = false;
  for (const dev::Command& c : commands) {
    has_pick |= c.action == "pick_object";
    has_measure |= c.action == "measure_solubility";
  }
  EXPECT_TRUE(has_pick);
  EXPECT_TRUE(has_measure);
}

TEST(Workflows, SourceLinesAttached) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  auto commands = record_workflow(backend, testbed_workflow_source());
  for (const dev::Command& c : commands) EXPECT_GT(c.source_line, 0);
}

}  // namespace
}  // namespace rabit::script
