#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "support/telemetry/alerts.hpp"
#include "support/telemetry/flight_recorder.hpp"

namespace muerp::support::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").value.is_null());
  EXPECT_TRUE(parse("true").value.bool_value);
  EXPECT_FALSE(parse("false").value.bool_value);
  EXPECT_DOUBLE_EQ(parse("42").value.number_value, 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25e2").value.number_value, -325.0);
  EXPECT_EQ(parse("\"hi\"").value.string_value, "hi");
}

TEST(JsonParse, NumberPrecisionSurvives) {
  const auto r = parse("1.7976931348623157e308");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value.number_value, 1.7976931348623157e308);
}

TEST(JsonParse, NestedContainers) {
  const auto r = parse(R"({"a": [1, {"b": "c"}, null], "d": {"e": true}})");
  ASSERT_TRUE(r.ok()) << r.error;
  const Value& v = r.value;
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v["a"].is_array());
  EXPECT_EQ(v["a"].elements.size(), 3u);
  EXPECT_DOUBLE_EQ(v["a"][0].number_value, 1.0);
  EXPECT_EQ(v["a"][1]["b"].string_value, "c");
  EXPECT_TRUE(v["a"][2].is_null());
  EXPECT_TRUE(v["d"]["e"].bool_value);
}

TEST(JsonParse, MemberOrderPreserved) {
  const auto r = parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value.members.size(), 3u);
  EXPECT_EQ(r.value.members[0].first, "z");
  EXPECT_EQ(r.value.members[1].first, "a");
  EXPECT_EQ(r.value.members[2].first, "m");
}

TEST(JsonParse, StringEscapes) {
  const auto r = parse(R"("q\" b\\ s\/ \b \f \n \r \t uA bmp€")");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value.string_value, "q\" b\\ s/ \b \f \n \r \t uA bmp\xe2\x82\xac");
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("{").ok());
  EXPECT_FALSE(parse("[1,]").ok());
  EXPECT_FALSE(parse("{\"a\" 1}").ok());
  EXPECT_FALSE(parse("\"unterminated").ok());
  EXPECT_FALSE(parse("\"bad \\x escape\"").ok());
  EXPECT_FALSE(parse("nul").ok());
  EXPECT_FALSE(parse("\"raw control \x01\"").ok());
}

TEST(JsonParse, RejectsTrailingGarbage) {
  const auto r = parse("{} extra");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("offset"), std::string::npos);
}

TEST(JsonParse, RejectsSurrogateEscapes) {
  EXPECT_FALSE(parse(R"("\uD83D\uDE00")").ok());
  EXPECT_FALSE(parse(R"("\uDC00")").ok());
}

TEST(JsonParse, RawUtf8PassesThrough) {
  const auto r = parse("\"caf\xc3\xa9\"");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value.string_value, "caf\xc3\xa9");
}

TEST(JsonParse, WhitespaceTolerant) {
  const auto r = parse("  \n\t{ \"a\" :\n[ 1 , 2 ]\t} \n ");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value["a"].elements.size(), 2u);
}

TEST(JsonValue, MissesReturnSharedNull) {
  const auto r = parse(R"({"a": 1})");
  ASSERT_TRUE(r.ok());
  // Chained lookups through absent keys/indices never crash.
  const Value& miss = r.value["nope"]["deeper"][7]["more"];
  EXPECT_TRUE(miss.is_null());
  EXPECT_EQ(r.value.find("nope"), nullptr);
  EXPECT_NE(r.value.find("a"), nullptr);
  // Non-object lookup is also a safe miss.
  EXPECT_TRUE(r.value["a"]["not_an_object"].is_null());
}

TEST(JsonHelpers, QuoteEscapesAndNumberRoundTrips) {
  EXPECT_EQ(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(quote(std::string(1, '\x01')), "\"\\u0001\"");
  const auto n = parse(number(0.1));
  ASSERT_TRUE(n.ok()) << n.error;
  EXPECT_EQ(n.value.number_value, 0.1);  // max_digits10 round-trips bitwise
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWrite, AppendFormsMatchReturnForms) {
  std::string out = "[";
  append_quoted(out, "r\r t\t");
  out += ", ";
  append_number(out, -2.5);
  out += "]";
  EXPECT_EQ(out, "[" + quote("r\r t\t") + ", " + number(-2.5) + "]");
  EXPECT_EQ(out, "[\"r\\r t\\t\", -2.5]");
}

TEST(JsonWrite, EveryByteRoundTripsAloneAndEmbedded) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    for (const std::string& s :
         {std::string(1, c), "head" + std::string(1, c) + "tail",
          std::string(3, c)}) {
      const std::string quoted = quote(s);
      const ParseResult r = parse(quoted);
      ASSERT_TRUE(r.ok()) << "byte " << b << ": " << r.error;
      ASSERT_TRUE(r.value.is_string()) << "byte " << b;
      EXPECT_EQ(r.value.string_value, s) << "byte " << b;
      if (b < 0x20) {  // never a raw control byte on the wire
        EXPECT_EQ(quoted.find(c), std::string::npos) << "byte " << b;
      }
    }
  }
}

TEST(JsonWrite, SeededRandomDoublesRoundTripBitForBit) {
  std::mt19937_64 rng(20240612);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  int checked = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {  // any finite bit pattern, subnormals included
      const std::uint64_t bits = rng();
      std::memcpy(&v, &bits, sizeof v);
      if (!std::isfinite(v)) continue;
    } else {  // plain magnitudes like the documents carry
      v = unit(rng) * std::pow(10.0, static_cast<int>(rng() % 13) - 6);
    }
    const std::string text = number(v);
    const ParseResult r = parse(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.error;
    ASSERT_TRUE(r.value.is_number()) << text;
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &v, sizeof v);
    std::memcpy(&got, &r.value.number_value, sizeof got);
    EXPECT_EQ(got, want) << text;
    ++checked;
  }
  EXPECT_GT(checked, 9900);
  EXPECT_EQ(number(-0.0), "-0");
  EXPECT_EQ(number(4974.990234375), "4974.990234375");
}

TEST(JsonWrite, NonFiniteNumbersAreNull) {
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  std::string out = "x=";
  append_number(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "x=null");
}

TEST(JsonWrite, ControlBytesSurviveAlertAndFlightRecordDocuments) {
  const std::string odd = std::string("bell\x01\"q\"\\");
  telemetry::AlertStatus status;
  status.rule.name = odd;
  status.rule.metric = "session/rejected";
  const ParseResult alerts = parse(telemetry::alerts_json({status}));
  ASSERT_TRUE(alerts.ok()) << alerts.error;
  EXPECT_EQ(alerts.value["rules"][0]["name"].string_value, odd);

  telemetry::SessionRecord record;
  record.algorithm = odd;
  record.policy = "single";
  record.tree_rate = 0.1;
  const ParseResult rec = parse(telemetry::session_record_json(record));
  ASSERT_TRUE(rec.ok()) << rec.error;
  EXPECT_EQ(rec.value["algorithm"].string_value, odd);
  EXPECT_EQ(rec.value["tree_rate"].number_value, 0.1);
  const ParseResult trace = parse(telemetry::session_trace_json(record));
  ASSERT_TRUE(trace.ok()) << trace.error;
  EXPECT_EQ(trace.value["traceEvents"][0]["args"]["algorithm"].string_value,
            odd);
}

}  // namespace
}  // namespace muerp::support::json
