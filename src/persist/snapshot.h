// The PIER snapshot container format: a versioned, little-endian
// binary layout framing named sections, each independently protected
// by a CRC32C. Every stateful component serializes its own payload
// (see util/serial.h for the primitives) into one section; the
// container makes corruption detectable and restores all-or-nothing.
//
// Layout (all integers little-endian):
//
//   magic            8 bytes   "PIERSNAP"
//   header {
//     version        u32       kFormatVersion
//     section_count  u32
//     per section:
//       name_len     u16
//       name         name_len bytes
//       payload_len  u64
//       payload_crc  u32       CRC32C of the payload bytes
//   }
//   header_crc       u32       CRC32C of the header bytes above
//   payloads                   concatenated in section-table order
//
// Versioning policy: any change to this layout or to any component's
// payload encoding bumps kFormatVersion, and a reader accepts exactly
// its own version: older and newer files are rejected with a
// version-specific diagnostic (snapshots are checkpoints of a run,
// not archives -- re-run the stream to rebuild). Every section a
// component writes is therefore required on restore. Component
// payloads carry no per-section version on purpose -- the single
// top-level version gates the whole file.
//
// Validation contract: SnapshotReader::Parse verifies magic, version,
// header CRC, every section's length and CRC, and exact file length
// *before* exposing any section, so a bit flip or truncation anywhere
// in the file is rejected with a diagnostic and no partially-restored
// state can escape.

#ifndef PIER_PERSIST_SNAPSHOT_H_
#define PIER_PERSIST_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pier {
namespace persist {

inline constexpr char kMagic[8] = {'P', 'I', 'E', 'R', 'S', 'N', 'A', 'P'};
// The one version this build writes and reads (see the versioning
// policy above).
inline constexpr uint32_t kFormatVersion = 8;

// Accumulates named sections in memory, then serializes the complete
// framed snapshot in one pass. Section names must be unique and are
// written in Add order (component serialization is canonical -- same
// state, same bytes -- so Snapshot -> Restore -> Snapshot round-trips
// byte-identically).
class SnapshotBuilder {
 public:
  SnapshotBuilder() = default;
  SnapshotBuilder(const SnapshotBuilder&) = delete;
  SnapshotBuilder& operator=(const SnapshotBuilder&) = delete;

  // Returns the stream to write section `name`'s payload into; valid
  // until the next AddSection / WriteTo call.
  std::ostream& AddSection(std::string name);

  // Serializes magic, header, and all payloads.
  void WriteTo(std::ostream& out) const;

  // Convenience: the complete snapshot as a byte string.
  std::string Bytes() const;

  size_t num_sections() const { return sections_.size(); }
  uint64_t payload_bytes() const;

 private:
  struct Section {
    std::string name;
    std::ostringstream payload;
  };
  std::vector<Section> sections_;
};

// Parses and validates a framed snapshot into memory. On any defect --
// bad magic, unsupported version, CRC mismatch, truncation, trailing
// garbage -- Parse returns false with a diagnostic in *error and no
// sections are exposed.
class SnapshotReader {
 public:
  SnapshotReader() = default;

  bool Parse(std::istream& in, std::string* error);

  bool Has(std::string_view name) const;

  // The raw payload of section `name`; null when absent.
  const std::string* Section(std::string_view name) const;

  // Opens section `name` for reading with the util/serial.h helpers.
  // Returns false with *error set when the section is missing.
  bool Open(std::string_view name, std::istringstream* out,
            std::string* error) const;

  // Section names in file order.
  const std::vector<std::string>& section_names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::string> sections_;
};

}  // namespace persist
}  // namespace pier

#endif  // PIER_PERSIST_SNAPSHOT_H_
