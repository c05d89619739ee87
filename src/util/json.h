/**
 * @file
 * Minimal JSON value type, parser and writer.
 *
 * Supports the full JSON grammar (objects, arrays, strings with
 * escapes, numbers, booleans, null). Used by the config layer
 * (config/serialize.h) to load system/model/mapping descriptions and
 * to emit machine-readable reports, and by the CLI. Object member
 * order is preserved for stable output.
 */

#ifndef OPTIMUS_UTIL_JSON_H
#define OPTIMUS_UTIL_JSON_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace optimus {

/** A JSON document node. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /** Construct null. */
    JsonValue() = default;
    /** Construct a boolean. */
    static JsonValue boolean(bool v);
    /** Construct a number. */
    static JsonValue number(double v);
    /** Construct a string. */
    static JsonValue string(std::string v);
    /** Construct an empty array. */
    static JsonValue array();
    /** Construct an empty object. */
    static JsonValue object();

    /** Parse a JSON document; throws ConfigError on malformed input. */
    static JsonValue parse(const std::string &text);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; throw ConfigError on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    long long asInt() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    asObject() const;

    // ---- Object helpers ----
    /** True if this object has member @p key. */
    bool has(const std::string &key) const;
    /** Member access; throws ConfigError when absent. */
    const JsonValue &at(const std::string &key) const;
    /** Member access with fallback when absent. */
    double getNumber(const std::string &key, double fallback) const;
    long long getInt(const std::string &key, long long fallback) const;
    std::string getString(const std::string &key,
                          std::string fallback) const;
    /** Set (or replace) a member; this must be an object. */
    JsonValue &set(const std::string &key, JsonValue value);

    // ---- Array helpers ----
    /** Append an element; this must be an array. */
    JsonValue &push(JsonValue value);
    /** Element count of an array or object. */
    size_t size() const;

    /**
     * Serialize. @p indent 0 emits compact one-line JSON; a positive
     * value pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = 0) const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;

    void dumpTo(std::string &out, int indent, int depth) const;
};

} // namespace optimus

#endif // OPTIMUS_UTIL_JSON_H
