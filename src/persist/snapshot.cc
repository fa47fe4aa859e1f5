#include "persist/snapshot.h"

#include <cstring>
#include <limits>
#include <utility>

#include "persist/crc32c.h"
#include "util/check.h"
#include "util/serial.h"

namespace pier {
namespace persist {

namespace {

// Sanity bounds rejecting absurd tables before any large read; real
// snapshots use a few dozen sections with short dotted names.
constexpr uint32_t kMaxSections = 1u << 16;
constexpr uint16_t kMaxNameLen = 1u << 10;

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::ostream& SnapshotBuilder::AddSection(std::string name) {
  PIER_CHECK(!name.empty());
  for (const Section& s : sections_) {
    PIER_CHECK(s.name != name);  // section names must be unique
  }
  sections_.emplace_back();
  sections_.back().name = std::move(name);
  return sections_.back().payload;
}

uint64_t SnapshotBuilder::payload_bytes() const {
  uint64_t total = 0;
  for (const Section& s : sections_) total += s.payload.view().size();
  return total;
}

void SnapshotBuilder::WriteTo(std::ostream& out) const {
  std::ostringstream header;
  serial::WriteU32(header, kFormatVersion);
  serial::WriteU32(header, static_cast<uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    const std::string_view payload = s.payload.view();
    PIER_CHECK(s.name.size() <= kMaxNameLen);
    serial::WriteU16(header, static_cast<uint16_t>(s.name.size()));
    header.write(s.name.data(), static_cast<std::streamsize>(s.name.size()));
    serial::WriteU64(header, payload.size());
    serial::WriteU32(header, Crc32c(payload));
  }
  const std::string header_bytes = std::move(header).str();

  out.write(kMagic, sizeof(kMagic));
  out.write(header_bytes.data(),
            static_cast<std::streamsize>(header_bytes.size()));
  serial::WriteU32(out, Crc32c(header_bytes));
  for (const Section& s : sections_) {
    const std::string_view payload = s.payload.view();
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
}

std::string SnapshotBuilder::Bytes() const {
  std::ostringstream out;
  WriteTo(out);
  return std::move(out).str();
}

bool SnapshotReader::Parse(std::istream& in, std::string* error) {
  names_.clear();
  sections_.clear();

  // Buffer the whole file: snapshots are validated end to end before
  // any state is exposed, so streaming parse buys nothing.
  std::string bytes;
  {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }

  size_t pos = 0;
  const auto remaining = [&]() { return bytes.size() - pos; };

  if (remaining() < sizeof(kMagic)) {
    SetError(error, "snapshot truncated: shorter than the magic");
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    SetError(error, "bad snapshot magic (not a PIER snapshot)");
    return false;
  }
  pos += sizeof(kMagic);

  std::istringstream cursor(bytes.substr(pos));
  uint32_t version = 0;
  uint32_t section_count = 0;
  if (!serial::ReadU32(cursor, &version) ||
      !serial::ReadU32(cursor, &section_count)) {
    SetError(error, "snapshot truncated inside the header");
    return false;
  }
  if (version != kFormatVersion) {
    SetError(error, "unsupported snapshot version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kFormatVersion) +
                        " only; re-run the stream to rebuild)");
    return false;
  }
  if (section_count > kMaxSections) {
    SetError(error, "implausible section count " +
                        std::to_string(section_count) + " (corrupt header)");
    return false;
  }

  struct TableEntry {
    std::string name;
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
  };
  std::vector<TableEntry> table;
  table.reserve(section_count);
  uint64_t total_payload = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    TableEntry entry;
    uint16_t name_len = 0;
    if (!serial::ReadU16(cursor, &name_len) || name_len == 0 ||
        name_len > kMaxNameLen) {
      SetError(error, "snapshot section table corrupt (bad name length)");
      return false;
    }
    entry.name.resize(name_len);
    if (!cursor.read(entry.name.data(), name_len) ||
        !serial::ReadU64(cursor, &entry.payload_len) ||
        !serial::ReadU32(cursor, &entry.payload_crc)) {
      SetError(error, "snapshot truncated inside the section table");
      return false;
    }
    if (entry.payload_len > bytes.size()) {
      SetError(error, "section '" + entry.name +
                          "' declares a payload longer than the snapshot");
      return false;
    }
    total_payload += entry.payload_len;
    table.push_back(std::move(entry));
  }

  const size_t header_len = static_cast<size_t>(cursor.tellg());
  pos += header_len;
  if (remaining() < 4) {
    SetError(error, "snapshot truncated before the header CRC");
    return false;
  }
  const uint32_t stored_header_crc =
      static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos])) |
      static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + 1])) << 8 |
      static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + 2])) << 16 |
      static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + 3])) << 24;
  const uint32_t actual_header_crc =
      Crc32c(bytes.data() + sizeof(kMagic), header_len);
  if (stored_header_crc != actual_header_crc) {
    SetError(error, "snapshot header CRC mismatch (corrupt section table)");
    return false;
  }
  pos += 4;

  if (remaining() != total_payload) {
    SetError(error,
             remaining() < total_payload
                 ? "snapshot truncated inside the payloads"
                 : "snapshot has trailing bytes after the last payload");
    return false;
  }

  std::vector<std::string> names;
  std::unordered_map<std::string, std::string> sections;
  for (const TableEntry& entry : table) {
    std::string payload = bytes.substr(pos, entry.payload_len);
    pos += entry.payload_len;
    if (Crc32c(payload) != entry.payload_crc) {
      SetError(error, "section '" + entry.name + "' CRC mismatch");
      return false;
    }
    if (!sections.emplace(entry.name, std::move(payload)).second) {
      SetError(error, "duplicate section '" + entry.name + "'");
      return false;
    }
    names.push_back(entry.name);
  }

  names_ = std::move(names);
  sections_ = std::move(sections);
  return true;
}

bool SnapshotReader::Has(std::string_view name) const {
  return sections_.count(std::string(name)) != 0;
}

const std::string* SnapshotReader::Section(std::string_view name) const {
  const auto it = sections_.find(std::string(name));
  return it == sections_.end() ? nullptr : &it->second;
}

bool SnapshotReader::Open(std::string_view name, std::istringstream* out,
                          std::string* error) const {
  const std::string* payload = Section(name);
  if (payload == nullptr) {
    SetError(error, "snapshot is missing section '" + std::string(name) + "'");
    return false;
  }
  out->str(*payload);
  out->clear();
  return true;
}

}  // namespace persist
}  // namespace pier
