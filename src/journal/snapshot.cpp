#include "journal/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "circuit/bug_plant.h"
#include "io/file_ops.h"

namespace qpf::journal {

namespace {

// One type byte ahead of every element so a desynchronized or corrupted
// stream fails loudly at the first misread instead of reinterpreting
// garbage.
enum Type : std::uint8_t {
  kTag = 0x01,
  kBool = 0x02,
  kU8 = 0x03,
  kU32 = 0x04,
  kU64 = 0x05,
  kI64 = 0x06,
  kDouble = 0x07,
  kString = 0x08,
  kBytes = 0x09,
  kRng = 0x0a,
  kCircuit = 0x0b,
};

const char* type_name(std::uint8_t t) {
  switch (t) {
    case kTag:
      return "tag";
    case kBool:
      return "bool";
    case kU8:
      return "u8";
    case kU32:
      return "u32";
    case kU64:
      return "u64";
    case kI64:
      return "i64";
    case kDouble:
      return "double";
    case kString:
      return "string";
    case kBytes:
      return "bytes";
    case kRng:
      return "rng";
    case kCircuit:
      return "circuit";
    default:
      return "unknown";
  }
}

constexpr std::array<char, 8> kMagic = {'Q', 'P', 'F', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderSize = 32;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t fetch_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t fetch_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[i];
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- SnapshotWriter ---------------------------------------------------

void SnapshotWriter::put_raw(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void SnapshotWriter::tag(std::string_view name) {
  bytes_.push_back(kTag);
  std::uint8_t length[4];
  store_u32(length, static_cast<std::uint32_t>(name.size()));
  put_raw(length, 4);
  put_raw(name.data(), name.size());
}

void SnapshotWriter::write_bool(bool v) {
  bytes_.push_back(kBool);
  bytes_.push_back(v ? 1 : 0);
}

void SnapshotWriter::write_u8(std::uint8_t v) {
  bytes_.push_back(kU8);
  bytes_.push_back(v);
}

void SnapshotWriter::write_u32(std::uint32_t v) {
  bytes_.push_back(kU32);
  std::uint8_t buffer[4];
  store_u32(buffer, v);
  put_raw(buffer, 4);
}

void SnapshotWriter::write_u64(std::uint64_t v) {
  bytes_.push_back(kU64);
  std::uint8_t buffer[8];
  store_u64(buffer, v);
  put_raw(buffer, 8);
}

void SnapshotWriter::write_i64(std::int64_t v) {
  bytes_.push_back(kI64);
  std::uint8_t buffer[8];
  store_u64(buffer, static_cast<std::uint64_t>(v));
  put_raw(buffer, 8);
}

void SnapshotWriter::write_double(double v) {
  static_assert(sizeof(double) == 8);
  bytes_.push_back(kDouble);
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  std::uint8_t buffer[8];
  store_u64(buffer, bits);
  put_raw(buffer, 8);
}

void SnapshotWriter::write_string(std::string_view s) {
  bytes_.push_back(kString);
  std::uint8_t length[8];
  store_u64(length, s.size());
  put_raw(length, 8);
  put_raw(s.data(), s.size());
}

void SnapshotWriter::write_bytes(const void* data, std::size_t size) {
  bytes_.push_back(kBytes);
  std::uint8_t length[8];
  store_u64(length, size);
  put_raw(length, 8);
  put_raw(data, size);
}

void SnapshotWriter::write_rng(const std::mt19937_64& rng) {
  // The standard guarantees an exact textual round trip through the
  // stream operators; that is the only portable way at the engine's
  // full 19937-bit state.
  std::ostringstream text;
  text << rng;
  bytes_.push_back(kRng);
  std::uint8_t length[8];
  const std::string s = text.str();
  store_u64(length, s.size());
  put_raw(length, 8);
  put_raw(s.data(), s.size());
}

void SnapshotWriter::write_circuit(const Circuit& circuit) {
  bytes_.push_back(kCircuit);
  std::uint8_t name_length[8];
  store_u64(name_length, circuit.name().size());
  put_raw(name_length, 8);
  put_raw(circuit.name().data(), circuit.name().size());
  std::uint8_t count[8];
  store_u64(count, circuit.num_slots());
  put_raw(count, 8);
  for (const SlotView slot : circuit) {
    std::uint8_t ops[8];
    store_u64(ops, slot.size());
    put_raw(ops, 8);
    for (const Operation& op : slot) {
      bytes_.push_back(static_cast<std::uint8_t>(op.gate()));
      std::uint8_t operands[8];
      store_u32(operands, op.control());
      store_u32(operands + 4, op.target());
      put_raw(operands, 8);
    }
  }
}

// --- SnapshotReader ---------------------------------------------------

void SnapshotReader::fail(const std::string& what) const {
  throw CheckpointError("snapshot stream: " + what + " at byte offset " +
                        std::to_string(offset_));
}

void SnapshotReader::take_raw(void* data, std::size_t size) {
  if (bytes_.size() - offset_ < size) {
    fail("truncated stream (" + std::to_string(size) + " bytes wanted, " +
         std::to_string(bytes_.size() - offset_) + " left)");
  }
  std::memcpy(data, bytes_.data() + offset_, size);
  offset_ += size;
}

void SnapshotReader::expect_type(std::uint8_t expected) {
  std::uint8_t actual;
  take_raw(&actual, 1);
  if (actual != expected) {
    offset_ -= 1;
    fail(std::string("type mismatch: expected ") + type_name(expected) +
         ", found " + type_name(actual));
  }
}

void SnapshotReader::expect_tag(std::string_view name) {
  const std::string actual = read_tag();
  if (actual != name) {
    fail("section mismatch: expected tag '" + std::string(name) +
         "', found '" + actual + "'");
  }
}

std::string SnapshotReader::read_tag() {
  expect_type(kTag);
  std::uint8_t length_bytes[4];
  take_raw(length_bytes, 4);
  const std::uint32_t length = fetch_u32(length_bytes);
  if (length > bytes_.size() - offset_) {
    fail("truncated tag");
  }
  std::string actual(length, '\0');
  take_raw(actual.data(), length);
  return actual;
}

bool SnapshotReader::read_bool() {
  expect_type(kBool);
  std::uint8_t v;
  take_raw(&v, 1);
  if (v > 1) {
    fail("corrupt bool");
  }
  return v != 0;
}

std::uint8_t SnapshotReader::read_u8() {
  expect_type(kU8);
  std::uint8_t v;
  take_raw(&v, 1);
  return v;
}

std::uint32_t SnapshotReader::read_u32() {
  expect_type(kU32);
  std::uint8_t buffer[4];
  take_raw(buffer, 4);
  return fetch_u32(buffer);
}

std::uint64_t SnapshotReader::read_u64() {
  expect_type(kU64);
  std::uint8_t buffer[8];
  take_raw(buffer, 8);
  return fetch_u64(buffer);
}

std::int64_t SnapshotReader::read_i64() {
  expect_type(kI64);
  std::uint8_t buffer[8];
  take_raw(buffer, 8);
  return static_cast<std::int64_t>(fetch_u64(buffer));
}

double SnapshotReader::read_double() {
  expect_type(kDouble);
  std::uint8_t buffer[8];
  take_raw(buffer, 8);
  const std::uint64_t bits = fetch_u64(buffer);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string SnapshotReader::read_string() {
  expect_type(kString);
  std::uint8_t length_bytes[8];
  take_raw(length_bytes, 8);
  const std::uint64_t length = fetch_u64(length_bytes);
  if (length > bytes_.size() - offset_) {
    fail("truncated string");
  }
  std::string s(static_cast<std::size_t>(length), '\0');
  take_raw(s.data(), s.size());
  return s;
}

void SnapshotReader::read_bytes(void* data, std::size_t size) {
  expect_type(kBytes);
  std::uint8_t length_bytes[8];
  take_raw(length_bytes, 8);
  const std::uint64_t length = fetch_u64(length_bytes);
  if (length != size) {
    fail("byte-block size mismatch: expected " + std::to_string(size) +
         ", found " + std::to_string(length));
  }
  take_raw(data, size);
}

std::mt19937_64 SnapshotReader::read_rng() {
  expect_type(kRng);
  std::uint8_t length_bytes[8];
  take_raw(length_bytes, 8);
  const std::uint64_t length = fetch_u64(length_bytes);
  if (length > bytes_.size() - offset_) {
    fail("truncated rng state");
  }
  std::string s(static_cast<std::size_t>(length), '\0');
  take_raw(s.data(), s.size());
  std::istringstream text(s);
  std::mt19937_64 rng;
  text >> rng;
  if (text.fail()) {
    fail("unparsable rng state");
  }
  return rng;
}

Circuit SnapshotReader::read_circuit() {
  expect_type(kCircuit);
  std::uint8_t name_length_bytes[8];
  take_raw(name_length_bytes, 8);
  const std::uint64_t name_length = fetch_u64(name_length_bytes);
  if (name_length > bytes_.size() - offset_) {
    fail("truncated circuit name");
  }
  std::string name(static_cast<std::size_t>(name_length), '\0');
  take_raw(name.data(), name.size());
  std::uint8_t count_bytes[8];
  take_raw(count_bytes, 8);
  const std::uint64_t slots = fetch_u64(count_bytes);
  Circuit circuit(std::move(name));
  for (std::uint64_t s = 0; s < slots; ++s) {
    std::uint8_t ops_bytes[8];
    take_raw(ops_bytes, 8);
    const std::uint64_t ops = fetch_u64(ops_bytes);
    TimeSlot slot;
    for (std::uint64_t i = 0; i < ops; ++i) {
      std::uint8_t gate_byte;
      take_raw(&gate_byte, 1);
      if (gate_byte > static_cast<std::uint8_t>(GateType::kMeasureZ)) {
        fail("corrupt gate type " + std::to_string(gate_byte));
      }
      const auto gate = static_cast<GateType>(gate_byte);
      std::uint8_t operand_bytes[8];
      take_raw(operand_bytes, 8);
      const Qubit q0 = fetch_u32(operand_bytes);
      const Qubit q1 = fetch_u32(operand_bytes + 4);
      try {
        slot.add(arity(gate) == 2 ? Operation{gate, q0, q1}
                                  : Operation{gate, q0});
      } catch (const std::invalid_argument& bad) {
        fail(std::string("corrupt operation: ") + bad.what());
      }
    }
    circuit.append_slot(std::move(slot));
  }
  return circuit;
}

// --- Checkpoint files -------------------------------------------------

namespace {

void throw_errno(const std::string& what, const std::string& path) {
  throw CheckpointError(what + ": " + std::strerror(errno), path);
}

// fsync the directory containing `path` so the rename itself is
// durable.  A crash between rename(2) and the directory fsync can roll
// the rename back on power loss — the new checkpoint would silently
// vanish — so a failure here is a CheckpointError, not best effort.
// Routed through qpf::io so the fault harness can observe, fail, and
// crash at this exact step (the durability contract is now proved by
// FaultFs op-log conformance instead of an observer hook).
void sync_parent_directory(const std::string& path) {
  if (plant::bug(13)) {
    return;  // checkpoint-skip-dir-fsync: rename left volatile
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string dir_path = dir.empty() ? "/" : dir;
  io::FileOps& fs = io::ops();
  const int fd = fs.open(dir_path.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) {
    throw_errno("cannot open checkpoint directory for fsync", dir_path);
  }
  if (fs.fsync(fd) != 0) {
    const int saved = errno;
    fs.close(fd);
    errno = saved;
    throw_errno("checkpoint directory fsync failed", dir_path);
  }
  fs.close(fd);
}

}  // namespace

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> header(kHeaderSize, 0);
  std::memcpy(header.data(), kMagic.data(), kMagic.size());
  store_u32(header.data() + 8, kSnapshotFormatVersion);
  store_u32(header.data() + 12, 0);
  store_u64(header.data() + 16, payload.size());
  store_u32(header.data() + 24, crc32(payload.data(), payload.size()));
  store_u32(header.data() + 28, crc32(header.data(), 28));

  const std::string temp = path + ".tmp";
  io::FileOps& fs = io::ops();
  const int fd = fs.open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw_errno("cannot create checkpoint temp file", temp);
  }
  if (!io::write_all(fd, header.data(), header.size()) ||
      !io::write_all(fd, payload.data(), payload.size())) {
    const int saved = errno;
    fs.close(fd);
    errno = saved;
    throw_errno("checkpoint write failed", temp);
  }
  if (fs.fsync(fd) != 0) {
    const int saved = errno;
    fs.close(fd);
    errno = saved;
    throw_errno("checkpoint fsync failed", temp);
  }
  fs.close(fd);
  if (fs.rename(temp.c_str(), path.c_str()) != 0) {
    throw_errno("checkpoint rename failed", path);
  }
  sync_parent_directory(path);
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  io::FileOps& fs = io::ops();
  const int fd = fs.open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    throw_errno("cannot open checkpoint", path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = io::read_retry(fd, buffer, sizeof(buffer));
    if (n < 0) {
      const int saved = errno;
      fs.close(fd);
      errno = saved;
      throw_errno("checkpoint read failed", path);
    }
    if (n == 0) {
      break;
    }
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  fs.close(fd);

  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("checkpoint truncated: " +
                              std::to_string(bytes.size()) +
                              " bytes, header needs " +
                              std::to_string(kHeaderSize),
                          path);
  }
  if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    throw CheckpointError("bad checkpoint magic", path);
  }
  if (crc32(bytes.data(), 28) != fetch_u32(bytes.data() + 28)) {
    throw CheckpointError("checkpoint header CRC mismatch", path);
  }
  const std::uint32_t version = fetch_u32(bytes.data() + 8);
  if (version != kSnapshotFormatVersion) {
    throw CheckpointError("unsupported checkpoint version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kSnapshotFormatVersion) + ")",
                          path);
  }
  const std::uint64_t length = fetch_u64(bytes.data() + 16);
  if (bytes.size() - kHeaderSize != length) {
    throw CheckpointError("checkpoint payload truncated: header promises " +
                              std::to_string(length) + " bytes, file has " +
                              std::to_string(bytes.size() - kHeaderSize),
                          path);
  }
  const std::uint32_t expected = fetch_u32(bytes.data() + 24);
  const std::uint32_t actual = crc32(bytes.data() + kHeaderSize, length);
  if (expected != actual) {
    throw CheckpointError("checkpoint payload CRC mismatch", path);
  }
  return {bytes.begin() + kHeaderSize, bytes.end()};
}

}  // namespace qpf::journal
