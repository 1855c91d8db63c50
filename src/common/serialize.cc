#include "common/serialize.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/status.h"

namespace phasorwatch {
namespace {

// Serialize through explicit byte copies; the host is little-endian on
// every supported platform, and memcpy avoids aliasing pitfalls.
template <typename T>
void WriteRaw(std::ostream& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.write(bytes, sizeof(T));
}

template <typename T>
Result<T> ReadRaw(std::istream& in, const char* what) {
  char bytes[sizeof(T)];
  in.read(bytes, sizeof(T));
  if (!in.good() && !in.eof()) {
    return Status::InvalidArgument(std::string("stream error reading ") +
                                   what);
  }
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) {
    return Status::InvalidArgument(std::string("truncated input reading ") +
                                   what);
  }
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

}  // namespace

void BinaryWriter::WriteU64(uint64_t value) { WriteRaw(out_, value); }
void BinaryWriter::WriteDouble(double value) { WriteRaw(out_, value); }
void BinaryWriter::WriteBool(bool value) {
  WriteRaw(out_, static_cast<uint8_t>(value ? 1 : 0));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& values) {
  WriteU64(values.size());
  for (double v : values) WriteDouble(v);
}

void BinaryWriter::WriteSizeVector(const std::vector<size_t>& values) {
  WriteU64(values.size());
  for (size_t v : values) WriteU64(v);
}

Result<uint64_t> BinaryReader::ReadU64() {
  return ReadRaw<uint64_t>(in_, "u64");
}
Result<double> BinaryReader::ReadDouble() {
  return ReadRaw<double>(in_, "double");
}

Result<bool> BinaryReader::ReadBool() {
  PW_ASSIGN_OR_RETURN(uint8_t raw, ReadRaw<uint8_t>(in_, "bool"));
  if (raw > 1) {
    return Status::InvalidArgument("corrupt bool value");
  }
  return raw == 1;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector(size_t max_size) {
  PW_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  if (size > max_size) {
    return Status::InvalidArgument("vector length exceeds limit");
  }
  std::vector<double> values(size);
  for (uint64_t i = 0; i < size; ++i) {
    PW_ASSIGN_OR_RETURN(values[i], ReadDouble());
  }
  return values;
}

Result<std::vector<size_t>> BinaryReader::ReadSizeVector(size_t max_size) {
  PW_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  if (size > max_size) {
    return Status::InvalidArgument("vector length exceeds limit");
  }
  std::vector<size_t> values(size);
  for (uint64_t i = 0; i < size; ++i) {
    PW_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    values[i] = static_cast<size_t>(v);
  }
  return values;
}

// --- JSON text helpers -------------------------------------------------

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          *out += buf;
        } else {
          *out += ch;
        }
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::string FormatJsonDouble(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

// Minimal strict recursive-descent JSON validator. Tracks position for
// error messages; depth-limited against pathological nesting.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  Status Validate() {
    PW_RETURN_IF_ERROR(Value(0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::OK();
  }

  /// Validates one value starting at pos_ and leaves pos_ past it.
  Status Value(int depth) {
    if (depth > 64) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char ch = text_[pos_];
    switch (ch) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  size_t pos() const { return pos_; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  Status String() {
    // pos_ is at the opening quote.
    ++pos_;
    while (pos_ < text_.size()) {
      char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(ch) < 0x20) {
        return Error("raw control character in string");
      }
      if (ch == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("truncated escape");
        char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                            text_[pos_]))) {
              return Error("bad \\u escape");
            }
          }
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return Error("bad escape character");
        }
      }
      ++pos_;
    }
    return Error("unterminated string");
  }

 private:
  Status Object(int depth) {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      PW_RETURN_IF_ERROR(String());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after key");
      }
      ++pos_;
      PW_RETURN_IF_ERROR(Value(depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  Status Array(int depth) {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      PW_RETURN_IF_ERROR(Value(depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return Error("bad literal");
    pos_ += len;
    return Status::OK();
  }

  Status Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t int_digits = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++int_digits;
    }
    if (int_digits == 0) return Error("expected digits");
    // No leading zeros: "0" is fine, "01" is not.
    if (int_digits > 1 && text_[start + (text_[start] == '-' ? 1 : 0)] == '0') {
      return Error("leading zero");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      size_t frac = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return Error("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      size_t exp = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return Error("expected exponent digits");
    }
    return Status::OK();
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("malformed JSON at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status ValidateJson(std::string_view text) {
  return JsonValidator(text).Validate();
}

Result<std::string> JsonObjectField(std::string_view text,
                                    std::string_view key) {
  PW_RETURN_IF_ERROR(ValidateJson(text));
  JsonValidator scanner(text);
  scanner.SkipSpace();
  if (scanner.pos() >= text.size() || text[scanner.pos()] != '{') {
    return Status::InvalidArgument("not a JSON object");
  }
  // Re-walk the (already validated) object byte-wise. Keys in our own
  // output never use escapes, so comparing the undecoded key body is
  // sufficient.
  // Built by appending: GCC 12 at -O3 raises a false -Wrestrict on the
  // inlined "\"" + std::string(key) + "\"" concatenation.
  std::string quoted;
  quoted.reserve(key.size() + 2);
  quoted.push_back('"');
  quoted.append(key);
  quoted.push_back('"');
  // Scan top-level keys: track nesting depth so nested objects' keys
  // are skipped.
  int depth = 0;
  bool in_string = false;
  for (size_t i = text.find('{'); i < text.size(); ++i) {
    char ch = text[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      if (depth == 1 && text.compare(i, quoted.size(), quoted) == 0) {
        size_t after = i + quoted.size();
        while (after < text.size() &&
               std::isspace(static_cast<unsigned char>(text[after]))) {
          ++after;
        }
        if (after < text.size() && text[after] == ':') {
          // Validate-consume the value to find its extent.
          ++after;
          while (after < text.size() &&
                 std::isspace(static_cast<unsigned char>(text[after]))) {
            ++after;
          }
          JsonValidator value_scanner(text.substr(after));
          Status st = value_scanner.Value(0);
          if (!st.ok()) return st;
          return std::string(text.substr(after, value_scanner.pos()));
        }
      }
      in_string = true;
      continue;
    }
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
  }
  return Status::NotFound("key \"" + std::string(key) + "\" not present");
}

}  // namespace phasorwatch
