#include "common/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace capgpu::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-12").as_number(), -12.0);
  EXPECT_DOUBLE_EQ(parse("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(v.is_object());
  const Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
  EXPECT_TRUE(v.contains("d"));
  EXPECT_FALSE(v.contains("z"));
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse("{}").as_object().empty());
  EXPECT_TRUE(parse("[]").as_array().empty());
}

TEST(Json, ConvenienceAccessorsWithFallback) {
  const Value v = parse(R"({"n": 4, "s": "x"})");
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 2.5), 2.5);
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse(R"({"a": 1})");
  EXPECT_THROW((void)v.as_array(), InvalidArgument);
  EXPECT_THROW((void)v.at("a").as_string(), InvalidArgument);
  EXPECT_THROW((void)v.at("missing"), InvalidArgument);
  EXPECT_THROW((void)parse("3").at("k"), InvalidArgument);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW((void)parse(""), InvalidArgument);
  EXPECT_THROW((void)parse("{"), InvalidArgument);
  EXPECT_THROW((void)parse("[1,]"), InvalidArgument);
  EXPECT_THROW((void)parse("\"unterminated"), InvalidArgument);
  EXPECT_THROW((void)parse("tru"), InvalidArgument);
  EXPECT_THROW((void)parse("1 2"), InvalidArgument);  // trailing tokens
  EXPECT_THROW((void)parse(R"("\u00zz")"), InvalidArgument);
}

TEST(Json, NestingPastTheLimitThrowsInsteadOfOverflowingTheStack) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto rejects_depth = [](const std::string& text) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "a document of " << text.size() << " bytes passed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  };
  EXPECT_NO_THROW((void)parse(nested(kMaxDepth)));
  rejects_depth(nested(kMaxDepth + 1));
  // A line of 20000 brackets used to overflow the stack of every loader.
  rejects_depth(nested(20000));
  // Objects count as levels too, and the limit spans both kinds.
  std::string mixed;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) {
    mixed += i % 2 ? "[" : "{\"k\":";
  }
  rejects_depth(mixed);
}

TEST(Json, IntegerAccessorRejectsWhatACastWouldGetWrong) {
  const Value v = parse(
      R"({"n": 4, "neg": -1, "frac": 1.9, "inf": 1e999, "big": 3e9,
          "s": "4", "exact": 9007199254740992})");
  EXPECT_EQ(v.integer_or("n", 0, 0, 10), 4);
  EXPECT_EQ(v.integer_or("missing", 7, 0, 10), 7);
  EXPECT_EQ(v.integer_or("neg", 0, -1, 10), -1);
  EXPECT_EQ(v.integer_or("exact", 0, 0, kMaxExactInteger), kMaxExactInteger);
  for (const char* key : {"neg", "frac", "inf", "big", "s"}) {
    try {
      (void)v.integer_or(key, 0, 0, 2147483647);
      ADD_FAILURE() << key << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  try {
    (void)v.at("frac").as_integer("frac", 0, 10);
    ADD_FAILURE() << "1.9 was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("got 1.9"), std::string::npos)
        << e.what();
  }
}

TEST(Json, EscapePinsEveryControlCharacter) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("q\"b\\"), "q\\\"b\\\\");
  const char* expected[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\u0008", "\\t",     "\\n",     "\\u000b",
      "\\u000c", "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  for (int c = 0; c < 0x20; ++c) {
    EXPECT_EQ(escape(std::string(1, static_cast<char>(c))), expected[c])
        << "control character " << c;
    // The escape parses back to the character.
    std::string quoted = "\"";
    quoted += escape(std::string(1, static_cast<char>(c)));
    quoted += '"';
    EXPECT_EQ(parse(quoted).as_string(), std::string(1, static_cast<char>(c)));
  }
  EXPECT_EQ(escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");  // DEL and UTF-8 pass
}

TEST(Json, RenderNumberIsShortestStable) {
  EXPECT_EQ(render_number(42.0), "42");
  EXPECT_EQ(render_number(-3.0), "-3");
  EXPECT_EQ(render_number(0.1), "0.1");
  EXPECT_EQ(render_number(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(render_number(1e15), "1e+15");
  EXPECT_EQ(render_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(render_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(Json, ParsePrefixWalksJsonlStream) {
  // The events.jsonl shape capgpu_report consumes: one document per line.
  const std::string stream =
      "{\"ph\":\"i\",\"ts\":1}\n{\"ph\":\"C\",\"ts\":2}\n";
  std::size_t pos = 0;
  const Value first = parse_prefix(stream, pos);
  EXPECT_EQ(first.at("ph").as_string(), "i");
  const Value second = parse_prefix(stream, pos);
  EXPECT_DOUBLE_EQ(second.at("ts").as_number(), 2.0);
  // Only trailing whitespace remains.
  EXPECT_GE(pos, stream.size() - 1);
}

}  // namespace
}  // namespace capgpu::json
