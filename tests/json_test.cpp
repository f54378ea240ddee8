#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace rabit::json {
namespace {

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Type::Null);
}

TEST(JsonValue, ScalarConstruction) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).as_double(), 3.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(JsonValue, IntegerReadsAsDouble) {
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value(7.0).is_number());
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(static_cast<void>(Value(1).as_string()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(Value("x").as_int()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(Value(true).as_array()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(Value(3.5).as_int()), std::runtime_error);  // doubles are not ints
}

TEST(JsonObject, InsertionOrderPreserved) {
  Object o;
  o["z"] = 1;
  o["a"] = 2;
  o["m"] = 3;
  std::vector<std::string> keys;
  for (const auto& [k, v] : o) {
    (void)v;
    keys.push_back(k);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonObject, FindAndAt) {
  Object o;
  o["x"] = 5;
  EXPECT_NE(o.find("x"), nullptr);
  EXPECT_EQ(o.find("y"), nullptr);
  EXPECT_EQ(o.at("x").as_int(), 5);
  EXPECT_THROW(static_cast<void>(o.at("y")), std::out_of_range);
}

TEST(JsonObject, EqualityIsOrderInsensitive) {
  Object a;
  a["x"] = 1;
  a["y"] = 2;
  Object b;
  b["y"] = 2;
  b["x"] = 1;
  EXPECT_EQ(Value(a), Value(b));
  b["x"] = 3;
  EXPECT_FALSE(Value(a) == Value(b));
}

TEST(JsonObject, Erase) {
  Object o;
  o["a"] = 1;
  o["b"] = 2;
  o.erase("a");
  EXPECT_FALSE(o.contains("a"));
  EXPECT_TRUE(o.contains("b"));
}

TEST(JsonValue, GetOrDefaults) {
  Object o;
  o["present"] = 9;
  Value v(std::move(o));
  EXPECT_EQ(v.get_or("present", std::int64_t{0}), 9);
  EXPECT_EQ(v.get_or("absent", std::int64_t{7}), 7);
  EXPECT_EQ(v.get_or("absent", std::string("dflt")), "dflt");
  EXPECT_TRUE(v.get_or("absent", true));
}

// --- parser ---------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("123").as_int(), 123);
  EXPECT_EQ(parse("-40").as_int(), -40);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-1.5e-2").as_double(), -0.015);
  EXPECT_EQ(parse("\"abc\"").as_string(), "abc");
}

TEST(JsonParse, IntegerVsDoubleDistinct) {
  EXPECT_TRUE(parse("10").is_int());
  EXPECT_TRUE(parse("10.0").is_double());
  EXPECT_TRUE(parse("1e2").is_double());
}

TEST(JsonParse, NestedStructures) {
  Value v = parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  EXPECT_EQ(v.as_object().at("a").as_array()[1].as_int(), 2);
  EXPECT_TRUE(v.as_object().at("a").as_array()[2].as_object().at("b").is_null());
  EXPECT_TRUE(v.as_object().at("c").as_object().at("d").as_bool());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // e-acute, UTF-8
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // emoji
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
  EXPECT_TRUE(parse("[ ]").as_array().empty());
}

TEST(JsonParse, WhitespaceTolerated) {
  Value v = parse("  {\n\t\"a\" : [ 1 , 2 ]\r\n}  ");
  EXPECT_EQ(v.as_object().at("a").as_array().size(), 2u);
}

struct BadInput {
  const char* text;
  const char* why;
};

// Prints the reason, not the pointers: CTest names parameterized cases after
// this text, and an address would rename the case on every build.
void PrintTo(const BadInput& b, std::ostream* os) { *os << b.why; }

class JsonParseErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(JsonParseErrors, Rejected) {
  EXPECT_THROW(parse(GetParam().text), ParseError) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParseErrors,
    ::testing::Values(BadInput{"", "empty document"}, BadInput{"{", "unterminated object"},
                      BadInput{"[1,", "unterminated array"}, BadInput{"[1,]", "trailing comma"},
                      BadInput{"{\"a\":}", "missing value"},
                      BadInput{"{\"a\" 1}", "missing colon"},
                      BadInput{"{\"a\":1 \"b\":2}", "missing comma"},
                      BadInput{"\"abc", "unterminated string"},
                      BadInput{"\"\\x\"", "bad escape"}, BadInput{"01", "leading zero"},
                      BadInput{"1.", "digits after point"}, BadInput{"1e", "empty exponent"},
                      BadInput{"tru", "truncated true"}, BadInput{"nul", "truncated null"},
                      BadInput{"1 2", "trailing garbage"},
                      BadInput{"{\"a\":1,\"a\":2}", "duplicate key"},
                      BadInput{"\"\\ud800\"", "unpaired surrogate"},
                      BadInput{"\"a\nb\"", "raw control char"}));

TEST(JsonParse, ErrorCarriesLineAndColumn) {
  try {
    static_cast<void>(parse("{\n  \"a\": [1,\n  2,,]\n}"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(JsonParse, DeepNestingIsAPositionedErrorNotACrash) {
  // 100 000 open brackets once overflowed the recursive-descent stack.
  std::string deep(100000, '[');
  try {
    static_cast<void>(parse(deep));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), kMaxParseDepth + 1);  // the first bracket past the limit
  }
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(static_cast<void>(parse(objects)), ParseError);
}

TEST(JsonParse, NestingJustUnderTheLimitParses) {
  const int depth = kMaxParseDepth;
  std::string text = std::string(depth - 1, '[') + "[1]" + std::string(depth - 1, ']');
  Value v = parse(text);
  const Value* cursor = &v;
  for (int i = 1; i < depth; ++i) cursor = &cursor->as_array().front();
  EXPECT_EQ(cursor->as_array().front().as_int(), 1);
  EXPECT_THROW(static_cast<void>(parse("[" + text + "]")), ParseError);
}

// --- serializer -------------------------------------------------------------

TEST(JsonSerialize, RoundTripsStructure) {
  const char* doc = R"({"name":"vial_1","caps":[10,15.5],"flags":{"broken":false},"n":null})";
  Value v = parse(doc);
  EXPECT_EQ(parse(serialize(v)), v);
  EXPECT_EQ(parse(serialize_pretty(v)), v);
}

TEST(JsonSerialize, DoubleKeepsTypeOnRoundTrip) {
  Value v = parse("[1, 1.0]");
  Value round = parse(serialize(v));
  EXPECT_TRUE(round.as_array()[0].is_int());
  EXPECT_TRUE(round.as_array()[1].is_double());
}

TEST(JsonSerialize, EscapesControlCharacters) {
  std::string s = serialize(Value(std::string("a\x01z")));
  EXPECT_EQ(s, "\"a\\u0001z\"");
}

TEST(JsonSerialize, NanBecomesNull) {
  EXPECT_EQ(serialize(Value(std::nan(""))), "null");
}

TEST(JsonSerialize, PrettyHasIndentation) {
  Value v = parse(R"({"a":[1]})");
  std::string pretty = serialize_pretty(v);
  EXPECT_NE(pretty.find("\n  "), std::string::npos);
}

// --- schema -----------------------------------------------------------------

TEST(JsonSchema, TypeChecking) {
  Schema schema(std::string_view(R"({"type": "object"})"));
  EXPECT_TRUE(schema.validate(parse("{}")).empty());
  EXPECT_FALSE(schema.validate(parse("[]")).empty());
}

TEST(JsonSchema, RequiredProperties) {
  Schema schema(std::string_view(R"({"type":"object","required":["id","category"]})"));
  EXPECT_TRUE(schema.validate(parse(R"({"id":"x","category":"y"})")).empty());
  auto issues = schema.validate(parse(R"({"id":"x"})"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("category"), std::string::npos);
}

TEST(JsonSchema, NumericBoundsCatchSignErrors) {
  // The pilot-study scenario (§V-A): a negative sign entered where a
  // positive height was needed.
  Schema schema(std::string_view(R"({"type":"object","properties":{"z":{"type":"number","minimum":0}}})"));
  EXPECT_TRUE(schema.validate(parse(R"({"z": 0.12})")).empty());
  auto issues = schema.validate(parse(R"({"z": -0.12})"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].path, "/z");
}

TEST(JsonSchema, ExclusiveBounds) {
  Schema schema(std::string_view(R"({"type":"number","exclusiveMinimum":0,"exclusiveMaximum":1})"));
  EXPECT_TRUE(schema.validate(parse("0.5")).empty());
  EXPECT_FALSE(schema.validate(parse("0")).empty());
  EXPECT_FALSE(schema.validate(parse("1")).empty());
}

TEST(JsonSchema, EnumConstraint) {
  Schema schema(std::string_view(R"({"type":"string","enum":["open","closed"]})"));
  EXPECT_TRUE(schema.validate(parse("\"open\"")).empty());
  EXPECT_FALSE(schema.validate(parse("\"ajar\"")).empty());
}

TEST(JsonSchema, ArrayItemsAndBounds) {
  Schema schema(std::string_view(R"({"type":"array","minItems":1,"maxItems":3,"items":{"type":"integer"}})"));
  EXPECT_TRUE(schema.validate(parse("[1,2]")).empty());
  EXPECT_FALSE(schema.validate(parse("[]")).empty());
  EXPECT_FALSE(schema.validate(parse("[1,2,3,4]")).empty());
  auto issues = schema.validate(parse("[1,\"x\"]"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].path, "/1");
}

TEST(JsonSchema, NestedPathsInIssues) {
  Schema schema(std::string_view(R"({"type":"object","properties":{
    "devices":{"type":"array","items":{"type":"object","required":["id"]}}}})"));
  auto issues = schema.validate(parse(R"({"devices":[{"id":"a"},{}]})"));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].path, "/devices/1");
}

TEST(JsonSchema, ClosedObjectRejectsUnknownKeys) {
  Schema schema(std::string_view(R"({"type":"object","additionalProperties":false,
                    "properties":{"a":{"type":"integer"}}})"));
  EXPECT_TRUE(schema.validate(parse(R"({"a":1})")).empty());
  EXPECT_FALSE(schema.validate(parse(R"({"a":1,"b":2})")).empty());
}

TEST(JsonSchema, IntegerVsNumber) {
  Schema int_schema(R"({"type":"integer"})");
  Schema num_schema(R"({"type":"number"})");
  EXPECT_TRUE(int_schema.validate(parse("3")).empty());
  EXPECT_FALSE(int_schema.validate(parse("3.5")).empty());
  EXPECT_TRUE(num_schema.validate(parse("3")).empty());
  EXPECT_TRUE(num_schema.validate(parse("3.5")).empty());
}

TEST(JsonSchema, StringLengthBounds) {
  Schema schema(std::string_view(R"({"type":"string","minLength":1,"maxLength":3})"));
  EXPECT_TRUE(schema.validate(parse("\"ab\"")).empty());
  EXPECT_FALSE(schema.validate(parse("\"\"")).empty());
  EXPECT_FALSE(schema.validate(parse("\"abcd\"")).empty());
}

TEST(JsonSchema, MalformedSchemaThrows) {
  EXPECT_THROW(Schema(parse(R"({"type":"banana"})")), std::runtime_error);
  EXPECT_THROW(Schema(parse(R"({"enum":[]})")), std::runtime_error);
  EXPECT_THROW(Schema(parse("[]")), std::runtime_error);
}

TEST(JsonSchema, MultipleIssuesReported) {
  Schema schema(std::string_view(R"({"type":"object","required":["a","b"],
                    "properties":{"c":{"type":"integer"}}})"));
  auto issues = schema.validate(parse(R"({"c":"nope"})"));
  EXPECT_EQ(issues.size(), 3u);  // missing a, missing b, wrong type for c
}

/// Property: random JSON documents survive serialize -> parse unchanged,
/// both compact and pretty.
class JsonRoundTripProperty : public ::testing::TestWithParam<unsigned> {};

namespace {

Value random_value(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 6 : 4);
  switch (kind(rng)) {
    case 0: return Value();
    case 1: return Value(std::uniform_int_distribution<int>(0, 1)(rng) == 1);
    case 2: return Value(std::uniform_int_distribution<std::int64_t>(-1'000'000, 1'000'000)(rng));
    case 3: {
      std::uniform_real_distribution<double> d(-1e6, 1e6);
      return Value(d(rng));
    }
    case 4: {
      std::uniform_int_distribution<int> len(0, 12);
      std::uniform_int_distribution<int> ch(32, 126);
      std::string s;
      for (int i = len(rng); i > 0; --i) s.push_back(static_cast<char>(ch(rng)));
      return Value(std::move(s));
    }
    case 5: {
      Array arr;
      std::uniform_int_distribution<int> len(0, 4);
      for (int i = len(rng); i > 0; --i) arr.push_back(random_value(rng, depth - 1));
      return Value(std::move(arr));
    }
    default: {
      Object obj;
      std::uniform_int_distribution<int> len(0, 4);
      for (int i = len(rng); i > 0; --i) {
        obj["k" + std::to_string(i) + "_" +
            std::to_string(std::uniform_int_distribution<int>(0, 999)(rng))] =
            random_value(rng, depth - 1);
      }
      return Value(std::move(obj));
    }
  }
}

}  // namespace

TEST_P(JsonRoundTripProperty, SerializeParseIdentity) {
  std::mt19937 rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    Value v = random_value(rng, 3);
    EXPECT_EQ(parse(serialize(v)), v);
    EXPECT_EQ(parse(serialize_pretty(v)), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace rabit::json
