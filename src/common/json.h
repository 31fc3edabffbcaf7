#ifndef HGDB_COMMON_JSON_H
#define HGDB_COMMON_JSON_H

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hgdb::common {

/// Minimal JSON value with parse/serialize support.
///
/// Used by the RPC debug protocol (Sec. 3.5 of the paper: the debuggers talk
/// to the runtime via a JSON-based protocol) and by the RPC-served symbol
/// table. Supports the full JSON data model except lossless >53-bit floats;
/// integers are kept as int64 where possible.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  // std::map keeps serialization deterministic, which the tests rely on.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}  // NOLINT(google-explicit-constructor)
  Json(bool value) : type_(Type::Bool), bool_(value) {}  // NOLINT
  Json(int value) : type_(Type::Int), int_(value) {}  // NOLINT
  Json(int64_t value) : type_(Type::Int), int_(value) {}  // NOLINT
  Json(uint32_t value) : type_(Type::Int), int_(value) {}  // NOLINT
  Json(uint64_t value) : type_(Type::Int), int_(static_cast<int64_t>(value)) {}  // NOLINT
  Json(double value) : type_(Type::Double), double_(value) {}  // NOLINT
  Json(const char* value) : type_(Type::String), string_(value) {}  // NOLINT
  Json(std::string value) : type_(Type::String), string_(std::move(value)) {}  // NOLINT
  Json(std::string_view value) : type_(Type::String), string_(value) {}  // NOLINT
  Json(Array value) : type_(Type::Array), array_(std::move(value)) {}  // NOLINT
  Json(Object value) : type_(Type::Object), object_(std::move(value)) {}  // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_int() const { return type_ == Type::Int; }
  [[nodiscard]] bool is_double() const { return type_ == Type::Double; }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool() const { expect(Type::Bool); return bool_; }
  /// Doubles truncate toward zero and saturate at the int64 limits (NaN
  /// reads as 0): a plain cast of an out-of-range double such as an
  /// untrusted `1e300` is undefined behaviour.
  [[nodiscard]] int64_t as_int() const {
    if (type_ == Type::Double) return saturating_int(double_);
    expect(Type::Int);
    return int_;
  }
  [[nodiscard]] double as_double() const {
    if (type_ == Type::Int) return static_cast<double>(int_);
    expect(Type::Double);
    return double_;
  }
  [[nodiscard]] const std::string& as_string() const { expect(Type::String); return string_; }
  [[nodiscard]] const Array& as_array() const { expect(Type::Array); return array_; }
  [[nodiscard]] Array& as_array() { expect(Type::Array); return array_; }
  [[nodiscard]] const Object& as_object() const { expect(Type::Object); return object_; }
  [[nodiscard]] Object& as_object() { expect(Type::Object); return object_; }

  /// Object access; creates the key on mutation (like a map).
  Json& operator[](const std::string& key) {
    expect(Type::Object);
    return object_[key];
  }
  /// Const lookup: returns nullopt when the key is absent.
  [[nodiscard]] std::optional<std::reference_wrapper<const Json>> get(
      std::string_view key) const {
    expect(Type::Object);
    auto it = object_.find(key);
    if (it == object_.end()) return std::nullopt;
    return std::cref(it->second);
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return type_ == Type::Object && object_.find(key) != object_.end();
  }
  /// Convenience typed getters with defaults.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string default_value = "") const;
  [[nodiscard]] int64_t get_int(std::string_view key, int64_t default_value = 0) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool default_value = false) const;

  void push_back(Json value) { expect(Type::Array); array_.push_back(std::move(value)); }
  [[nodiscard]] size_t size() const {
    if (type_ == Type::Array) return array_.size();
    if (type_ == Type::Object) return object_.size();
    throw std::runtime_error("Json::size on non-container");
  }
  const Json& at(size_t index) const { expect(Type::Array); return array_.at(index); }

  bool operator==(const Json& rhs) const;
  bool operator!=(const Json& rhs) const { return !(*this == rhs); }

  /// Compact serialization (no whitespace).
  [[nodiscard]] std::string dump() const;
  /// Parses a complete JSON document; throws std::runtime_error with a
  /// byte-offset message on malformed input.
  static Json parse(std::string_view text);

 private:
  static int64_t saturating_int(double value) {
    constexpr double kTwoTo63 = 9223372036854775808.0;  // 2^63, exact
    if (std::isnan(value)) return 0;
    if (value >= kTwoTo63) return std::numeric_limits<int64_t>::max();
    if (value < -kTwoTo63) return std::numeric_limits<int64_t>::min();
    return static_cast<int64_t>(value);
  }
  void expect(Type type) const {
    if (type_ != type) throw std::runtime_error("Json type mismatch");
  }
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace hgdb::common

#endif  // HGDB_COMMON_JSON_H
