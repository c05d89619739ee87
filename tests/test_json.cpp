/**
 * @file
 * Unit tests for the JSON value type, parser and writer.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "util/error.h"
#include "util/json.h"

namespace optimus {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").asNumber(), -350.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue j = JsonValue::parse(
        R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
    ASSERT_TRUE(j.isObject());
    EXPECT_EQ(j.size(), 3u);
    const auto &arr = j.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[1].asNumber(), 2.0);
    EXPECT_TRUE(arr[2].at("b").asBool());
    EXPECT_TRUE(j.at("c").at("d").isNull());
}

TEST(Json, StringEscapes)
{
    JsonValue j = JsonValue::parse(R"("line\nquote\"tab\tA")");
    EXPECT_EQ(j.asString(), "line\nquote\"tab\tA");
    // Unicode beyond ASCII encodes as UTF-8.
    EXPECT_EQ(JsonValue::parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(Json, RoundTripsThroughDump)
{
    const std::string text =
        R"({"name":"A100","bw":1.9e+12,"levels":[1,2,3],)"
        R"("ok":true,"none":null})";
    JsonValue j = JsonValue::parse(text);
    JsonValue again = JsonValue::parse(j.dump());
    EXPECT_EQ(again.at("name").asString(), "A100");
    EXPECT_DOUBLE_EQ(again.at("bw").asNumber(), 1.9e12);
    EXPECT_EQ(again.at("levels").size(), 3u);
    EXPECT_TRUE(again.at("ok").asBool());
    EXPECT_TRUE(again.at("none").isNull());
}

TEST(Json, PreservesMemberOrder)
{
    JsonValue j = JsonValue::object();
    j.set("z", JsonValue::number(1));
    j.set("a", JsonValue::number(2));
    j.set("m", JsonValue::number(3));
    EXPECT_EQ(j.dump(), R"({"z":1,"a":2,"m":3})");
    // set() on an existing key replaces in place.
    j.set("a", JsonValue::number(9));
    EXPECT_EQ(j.dump(), R"({"z":1,"a":9,"m":3})");
}

TEST(Json, PrettyPrintIndents)
{
    JsonValue j = JsonValue::object();
    j.set("k", JsonValue::array().push(JsonValue::number(1)));
    EXPECT_EQ(j.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, IntegerAccessors)
{
    EXPECT_EQ(JsonValue::parse("7").asInt(), 7);
    EXPECT_THROW(JsonValue::parse("7.5").asInt(), ConfigError);
    JsonValue j = JsonValue::parse(R"({"n": 3})");
    EXPECT_EQ(j.getInt("n", 0), 3);
    EXPECT_EQ(j.getInt("missing", 11), 11);
    EXPECT_EQ(j.getString("missing", "dflt"), "dflt");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), ConfigError);
    EXPECT_THROW(JsonValue::parse("{"), ConfigError);
    EXPECT_THROW(JsonValue::parse("[1,]"), ConfigError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(JsonValue::parse("tru"), ConfigError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), ConfigError);
    EXPECT_THROW(JsonValue::parse("1 2"), ConfigError);
    EXPECT_THROW(JsonValue::parse("nan"), ConfigError);
}

TEST(Json, TypeMismatchThrows)
{
    JsonValue j = JsonValue::parse("[1]");
    EXPECT_THROW(j.asObject(), ConfigError);
    EXPECT_THROW(j.at("x"), ConfigError);
    EXPECT_THROW(j.set("x", JsonValue()), ConfigError);
    JsonValue num = JsonValue::number(1);
    EXPECT_THROW(num.asString(), ConfigError);
    EXPECT_THROW(num.push(JsonValue()), ConfigError);
    EXPECT_THROW(num.size(), ConfigError);
}

TEST(Json, EscapesOnOutput)
{
    JsonValue j = JsonValue::string("a\"b\\c\nd");
    EXPECT_EQ(j.dump(), R"("a\"b\\c\nd")");
}

TEST(Json, EscapesBetweenLongPlainRuns)
{
    const std::string plain(40, 'x');
    const std::string raw = plain + "\"" + plain + "\\" + "\n" + plain +
                            "\x01" + "\r\t" + plain + "\x1f";
    EXPECT_EQ(JsonValue::string(raw).dump(),
              "\"" + plain + "\\\"" + plain + "\\\\" + "\\n" + plain +
                  "\\u0001" + "\\r\\t" + plain + "\\u001f\"");
    EXPECT_EQ(JsonValue::string("").dump(), "\"\"");
    EXPECT_EQ(JsonValue::string("\x01").dump(), "\"\\u0001\"");
}

/**
 * The number writer's former algorithm: integers below 1e15 exactly,
 * else the first "%.*g" of 12, 15, 16 or 17 digits that strtod parses
 * back to the same double. The writer must keep its bytes. The range
 * test runs before the cast here (the cast is undefined beyond the
 * long long range); that order prints the same text.
 */
std::string
referenceNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (std::fabs(v) < 1e15 && v == static_cast<long long>(v))
        return std::to_string(static_cast<long long>(v));
    char buf[40];
    for (int prec : {12, 15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

TEST(Json, NumbersMatchThePrintfLoop)
{
    std::mt19937_64 rng(20240917);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    int checked = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            v = std::ldexp(double(bits >> 11), -30);
        const double u = uniform(rng) * 1e4;
        for (double x : {v, u}) {
            ASSERT_EQ(JsonValue::number(x).dump(), referenceNumber(x))
                << std::hexfloat << x;
            ++checked;
        }
    }
    EXPECT_EQ(checked, 100000);
}

TEST(Json, NumberSpellings)
{
    const double below_cutoff = std::nextafter(1e15, 0.0);
    const struct { double value; const char *text; } cases[] = {
        {0.1, "0.1"},
        {1e-6, "1e-06"},
        {1e21, "1e+21"},
        {-2.5, "-2.5"},
        {123456789012345.6, "123456789012345.6"},
        // The integer cutoff: below 1e15 an integer prints exactly,
        // from 1e15 on it takes the "%g" path.
        {999999999999999.0, "999999999999999"},
        {below_cutoff, "999999999999999.9"},
        {1e15, "1e+15"},
        {1e15 + 2.0, "1000000000000002"},
        {-0.0, "0"},
        {std::numeric_limits<double>::denorm_min(), "4.94065645841e-324"},
        {DBL_MAX, "1.7976931348623157e+308"},
        {0.1 + 0.2, "0.30000000000000004"},
        {1.0 / 3.0, "0.3333333333333333"},
        // JSON has no infinities or NaN: they are written as null.
        {std::numeric_limits<double>::infinity(), "null"},
        {-std::numeric_limits<double>::infinity(), "null"},
        {std::numeric_limits<double>::quiet_NaN(), "null"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(JsonValue::number(c.value).dump(), c.text)
            << std::hexfloat << c.value;
        EXPECT_EQ(referenceNumber(c.value), c.text);
        // Every spelling is JSON: it parses back.
        EXPECT_NO_THROW(JsonValue::parse("[" + std::string(c.text) + "]"));
    }
}

} // namespace
} // namespace optimus
