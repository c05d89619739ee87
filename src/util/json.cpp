#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace optimus {

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue j;
    j.type_ = Type::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::number(double v)
{
    JsonValue j;
    j.type_ = Type::Number;
    j.number_ = v;
    return j;
}

JsonValue
JsonValue::string(std::string v)
{
    JsonValue j;
    j.type_ = Type::String;
    j.string_ = std::move(v);
    return j;
}

JsonValue
JsonValue::array()
{
    JsonValue j;
    j.type_ = Type::Array;
    return j;
}

JsonValue
JsonValue::object()
{
    JsonValue j;
    j.type_ = Type::Object;
    return j;
}

bool
JsonValue::asBool() const
{
    checkConfig(type_ == Type::Bool, "json: expected a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    checkConfig(type_ == Type::Number, "json: expected a number");
    return number_;
}

long long
JsonValue::asInt() const
{
    double v = asNumber();
    long long i = static_cast<long long>(v);
    checkConfig(double(i) == v, "json: expected an integer");
    return i;
}

const std::string &
JsonValue::asString() const
{
    checkConfig(type_ == Type::String, "json: expected a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    checkConfig(type_ == Type::Array, "json: expected an array");
    return array_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    checkConfig(type_ == Type::Object, "json: expected an object");
    return object_;
}

bool
JsonValue::has(const std::string &key) const
{
    for (const auto &[k, v] : asObject())
        if (k == key)
            return true;
    return false;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    for (const auto &[k, v] : asObject())
        if (k == key)
            return v;
    throw ConfigError("json: missing member \"" + key + "\"");
}

double
JsonValue::getNumber(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

long long
JsonValue::getInt(const std::string &key, long long fallback) const
{
    return has(key) ? at(key).asInt() : fallback;
}

std::string
JsonValue::getString(const std::string &key, std::string fallback) const
{
    return has(key) ? at(key).asString() : std::move(fallback);
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    checkConfig(type_ == Type::Object, "json: set() needs an object");
    for (auto &[k, v] : object_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    object_.emplace_back(key, std::move(value));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    checkConfig(type_ == Type::Array, "json: push() needs an array");
    array_.push_back(std::move(value));
    return *this;
}

size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    throw ConfigError("json: size() needs an array or object");
}

// ---- Parser ----------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    run()
    {
        JsonValue v = value();
        skipWhitespace();
        checkConfig(pos_ == text_.size(),
                    "json: trailing characters at offset " +
                        std::to_string(pos_));
        return v;
    }

  private:
    const std::string &text_;
    size_t pos_ = 0;

    [[noreturn]] void
    fail(const std::string &what)
    {
        throw ConfigError("json: " + what + " at offset " +
                          std::to_string(pos_));
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal, expected \"") + word +
                     "\"");
            ++pos_;
        }
    }

    JsonValue
    value()
    {
        skipWhitespace();
        switch (peek()) {
          case '{': return objectValue();
          case '[': return arrayValue();
          case '"': return JsonValue::string(stringValue());
          case 't': literal("true"); return JsonValue::boolean(true);
          case 'f': literal("false"); return JsonValue::boolean(false);
          case 'n': literal("null"); return JsonValue();
          default: return numberValue();
        }
    }

    JsonValue
    objectValue()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        skipWhitespace();
        if (consume('}'))
            return obj;
        while (true) {
            skipWhitespace();
            std::string key = stringValue();
            skipWhitespace();
            expect(':');
            obj.set(key, value());
            skipWhitespace();
            if (consume('}'))
                return obj;
            expect(',');
        }
    }

    JsonValue
    arrayValue()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        skipWhitespace();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(value());
            skipWhitespace();
            if (consume(']'))
                return arr;
            expect(',');
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += h - 'A' + 10;
                    else
                        fail("bad \\u escape");
                }
                // Encode as UTF-8 (basic multilingual plane only).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    numberValue()
    {
        size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        char *end = nullptr;
        std::string token = text_.substr(start, pos_ - start);
        double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number \"" + token + "\"");
        return JsonValue::number(v);
    }
};

void
escapeInto(std::string &out, const std::string &s)
{
    out.push_back('"');
    // Plain characters go out in runs, one append per run.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char *esc = nullptr;
        switch (c) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\r': esc = "\\r"; break;
          case '\t': esc = "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
        }
        out.append(s, run, i - run);
        run = i + 1;
        if (esc != nullptr) {
            out += esc;
        } else {
            static constexpr char kHex[] = "0123456789abcdef";
            const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 0xF]};
            out.append(code, sizeof(code));
        }
    }
    out.append(s, run, s.size() - run);
    out.push_back('"');
}

void
numberInto(std::string &out, double v)
{
    // JSON has no infinities or NaN: write null, which JSON.parse,
    // Python's json and jq accept.
    if (!std::isfinite(v)) {
        out.append("null");
        return;
    }
    char buf[40];
    // The range test comes first: the cast is undefined for
    // |v| >= 2^63.
    if (std::fabs(v) < 1e15 && v == static_cast<long long>(v)) {
        const auto r = std::to_chars(buf, buf + sizeof(buf),
                                     static_cast<long long>(v));
        out.append(buf, r.ptr);
        return;
    }
    // The shortest "%.*g" of 12, 15, 16 or 17 digits that parses back
    // to the same double: ledger round trips (RunRecord serialize ->
    // parse) must be lossless, but "0.1" should not print as
    // "0.1000000000000000056". A precision below the d significant
    // digits of the shortest round-trip form cannot round-trip, so the
    // search starts at the first precision >= d; the parse-back check
    // still guards every candidate. to_chars(general, P) is defined as
    // printf's "%.Pg", so the bytes match the printf/strtod loop.
    const auto shortest = std::to_chars(buf, buf + sizeof(buf), v,
                                        std::chars_format::scientific);
    int digits = 0;
    for (const char *p = buf; p != shortest.ptr && *p != 'e'; ++p)
        digits += (*p >= '0' && *p <= '9') ? 1 : 0;
    for (int prec : {12, 15, 16, 17}) {
        if (prec < digits)
            continue;
        const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                     std::chars_format::general, prec);
        double back = 0.0;
        std::from_chars(buf, r.ptr, back);
        if (back == v || prec == 17) {
            out.append(buf, r.ptr);
            return;
        }
    }
}

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).run();
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<size_t>(indent) * d, ' ');
        }
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        numberInto(out, number_);
        break;
      case Type::String:
        escapeInto(out, string_);
        break;
      case Type::Array:
        out.push_back('[');
        for (size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        if (!array_.empty())
            newline(depth);
        out.push_back(']');
        break;
      case Type::Object:
        out.push_back('{');
        for (size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            escapeInto(out, object_[i].first);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!object_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

} // namespace optimus
