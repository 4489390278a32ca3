// Versioned, CRC32-guarded binary serialization for the crash-safe
// experiment engine (PR 2).
//
// The classical tracking state of the whole stack — tableaus, state
// vectors, Pauli frames, RNG engines, counters — is compact and cheaply
// serializable (Paler & Devitt; García & Markov), so every layer can be
// snapshotted between circuits and restored bit-identically.
//
// SnapshotWriter / SnapshotReader implement a tagged, typed binary
// stream: every primitive carries a one-byte type tag and every layer
// opens its section with a named tag, so a truncated, corrupted, or
// mismatched stream surfaces as a structured qpf::CheckpointError (with
// the offending byte offset) instead of undefined behavior.
//
// Checkpoint *files* add the outer armor documented in DESIGN.md:
//
//   offset  0  magic "QPFSNAP1"                       (8 bytes)
//   offset  8  format version, little-endian u32      (currently 1)
//   offset 12  reserved u32                           (0)
//   offset 16  payload length, little-endian u64
//   offset 24  CRC32 of the payload, little-endian u32
//   offset 28  CRC32 of bytes [0, 28), little-endian u32
//   offset 32  payload (a SnapshotWriter stream)
//
// write_checkpoint_file() is atomic: the bytes go to "<path>.tmp",
// which is fsync'd and then rename(2)'d over the destination (followed
// by a directory fsync), so a crash leaves either the old checkpoint or
// the new one — never a torn file.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/error.h"

namespace qpf::journal {

/// Reflected CRC32 (IEEE 802.3, polynomial 0xEDB88320), the same
/// checksum zlib uses.  `seed` allows incremental computation.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view text,
                                         std::uint32_t seed = 0) {
  return crc32(text.data(), text.size(), seed);
}

/// Current checkpoint-payload format version.  Bump on any layout
/// change; readers reject other versions with CheckpointError.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

class SnapshotWriter {
 public:
  /// Named section marker; the reader must expect_tag() the same name.
  void tag(std::string_view name);

  void write_bool(bool v);
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_double(double v);
  void write_string(std::string_view s);
  void write_bytes(const void* data, std::size_t size);

  void write_size(std::size_t v) { write_u64(static_cast<std::uint64_t>(v)); }

  /// An mt19937_64 engine, exactly (std::ostream round trip).
  void write_rng(const std::mt19937_64& rng);

  /// A full circuit: slot structure and every operation.
  void write_circuit(const Circuit& circuit);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }

 private:
  void put_raw(const void* data, std::size_t size);

  std::vector<std::uint8_t> bytes_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  /// Verify the next element is a tag with this exact name; throws
  /// CheckpointError otherwise.
  void expect_tag(std::string_view name);

  /// Read the next element, which must be a tag, and return its name.
  /// Lets loaders dispatch on versioned section tags (e.g. LerStack's
  /// "ler-stack" and extended "ler-stack2" sections).
  [[nodiscard]] std::string read_tag();

  [[nodiscard]] bool read_bool();
  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_double();
  [[nodiscard]] std::string read_string();
  void read_bytes(void* data, std::size_t size);

  [[nodiscard]] std::size_t read_size() {
    return static_cast<std::size_t>(read_u64());
  }

  [[nodiscard]] std::mt19937_64 read_rng();
  [[nodiscard]] Circuit read_circuit();

  /// True once every byte has been consumed.
  [[nodiscard]] bool exhausted() const noexcept {
    return offset_ == bytes_.size();
  }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  /// Bytes not yet consumed: an upper bound on anything the rest of
  /// the stream can hold, for loaders to check a size against before
  /// they allocate for it.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  void expect_type(std::uint8_t expected);
  void take_raw(void* data, std::size_t size);
  [[noreturn]] void fail(const std::string& what) const;

  std::vector<std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Atomically persist a snapshot payload: header + CRC armor, written
/// to "<path>.tmp", fsync'd, renamed over `path`, directory fsync'd.
/// Throws CheckpointError on any I/O failure.
void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& payload);

/// Load and verify a checkpoint file.  Throws CheckpointError on a
/// missing file, short read, bad magic, version skew, or CRC mismatch
/// of either the header or the payload.
[[nodiscard]] std::vector<std::uint8_t> read_checkpoint_file(
    const std::string& path);

/// True if `path` exists and is a regular file.
[[nodiscard]] bool file_exists(const std::string& path);

}  // namespace qpf::journal
