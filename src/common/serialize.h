#ifndef PHASORWATCH_COMMON_SERIALIZE_H_
#define PHASORWATCH_COMMON_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace phasorwatch {

// --- JSON text helpers -------------------------------------------------
//
// The observability layer (src/obs) emits JSONL event logs and JSON
// metric snapshots; these helpers keep that output well-formed without
// pulling in a JSON library.

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): ", \, control characters.
std::string JsonEscape(std::string_view s);
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Formats a double as a valid JSON number token. NaN and infinities
/// (not representable in JSON) become `null`.
std::string FormatJsonDouble(double value);

/// Strict validation of one complete JSON value (object, array, string,
/// number, true/false/null). Returns kInvalidArgument with a position
/// hint on malformed input. Used by tests and by the `--validate-events`
/// mode of grid_monitor to verify emitted JSONL files.
PW_NODISCARD Status ValidateJson(std::string_view text);

/// Extracts the raw value text of a top-level key in a JSON object
/// (e.g. `"42"`, `"\"raise\""`, `"[1,2]"`). kNotFound when the key is
/// absent; kInvalidArgument when `text` is not a JSON object. Shallow:
/// only top-level keys are visible.
PW_NODISCARD Result<std::string> JsonObjectField(std::string_view text,
                                                 std::string_view key);

/// Little binary writer for model persistence. The format is
/// little-endian, fixed-width, with no alignment padding; every
/// compound structure is length-prefixed so readers can validate
/// buffers before allocating.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void WriteU64(uint64_t value);
  void WriteDouble(double value);
  void WriteBool(bool value);
  void WriteDoubleVector(const std::vector<double>& values);
  void WriteSizeVector(const std::vector<size_t>& values);

  bool ok() const { return out_.good(); }

 private:
  std::ostream& out_;
};

/// Counterpart reader; every method validates stream state and sizes,
/// returning kInvalidArgument on truncated or corrupt input. A vector's
/// length prefix is checked against the caller's `max_size` before
/// anything is allocated, so every caller must say how long the vector
/// can be.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  PW_NODISCARD Result<uint64_t> ReadU64();
  PW_NODISCARD Result<double> ReadDouble();
  PW_NODISCARD Result<bool> ReadBool();
  PW_NODISCARD Result<std::vector<double>> ReadDoubleVector(size_t max_size);
  PW_NODISCARD Result<std::vector<size_t>> ReadSizeVector(size_t max_size);

 private:
  std::istream& in_;
};

}  // namespace phasorwatch

#endif  // PHASORWATCH_COMMON_SERIALIZE_H_
