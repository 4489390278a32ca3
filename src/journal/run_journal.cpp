#include "journal/run_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "circuit/error.h"
#include "io/file_ops.h"
#include "journal/snapshot.h"

namespace qpf::journal {

namespace {

// A value is written unquoted when it already reads back as a number;
// everything else becomes a (minimally escaped) JSON string.
bool looks_numeric(const std::string& value) {
  if (value.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  std::strtod(value.c_str(), &end);
  return errno == 0 && end == value.c_str() + value.size();
}

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

std::string hex32(std::uint32_t v) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", v);
  return buffer;
}

// Serialize fields (sans crc) deterministically: std::map iterates in
// key order, so the checksummed prefix is byte-stable.
std::string render_prefix(const JournalEntry& entry) {
  std::string line = "{";
  bool first = true;
  for (const auto& [key, value] : entry.fields) {
    if (key == "crc") {
      continue;
    }
    if (!first) {
      line += ',';
    }
    first = false;
    append_json_string(line, key);
    line += ':';
    if (looks_numeric(value)) {
      line += value;
    } else {
      append_json_string(line, value);
    }
  }
  return line;
}

// Minimal flat-JSON line parser for the exact shape render_prefix
// produces (plus the crc field).  Returns false on any malformation;
// with `entry` null it only checks the line.
bool parse_line(const std::string& line, JournalEntry* entry) {
  std::size_t i = 0;
  auto skip_space = [&] {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
  };
  auto parse_string = [&](std::string& out) {
    if (i >= line.size() || line[i] != '"') {
      return false;
    }
    ++i;
    out.clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        ++i;
        switch (line[i]) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            out += line[i];
        }
      } else {
        out += line[i];
      }
      ++i;
    }
    if (i >= line.size()) {
      return false;
    }
    ++i;  // closing quote
    return true;
  };

  skip_space();
  if (i >= line.size() || line[i] != '{') {
    return false;
  }
  ++i;
  skip_space();
  if (i < line.size() && line[i] == '}') {
    return true;
  }
  for (;;) {
    skip_space();
    std::string key;
    if (!parse_string(key)) {
      return false;
    }
    skip_space();
    if (i >= line.size() || line[i] != ':') {
      return false;
    }
    ++i;
    skip_space();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      if (!parse_string(value)) {
        return false;
      }
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        ++i;
      }
      value = line.substr(start, i - start);
      while (!value.empty() &&
             std::isspace(static_cast<unsigned char>(value.back()))) {
        value.pop_back();
      }
      if (value.empty()) {
        return false;
      }
    }
    if (entry != nullptr) {
      entry->fields[key] = value;
    }
    skip_space();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_space();
  return i < line.size() && line[i] == '}';
}

// Read the whole file through the io seam; returns false when the file
// cannot be opened (a missing journal is "no entries", like before).
bool slurp_file(const std::string& path, std::string& out) {
  io::FileOps& fs = io::ops();
  const int fd = fs.open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return false;
  }
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = io::read_retry(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      break;
    }
    out.append(buffer, static_cast<std::size_t>(n));
  }
  fs.close(fd);
  return true;
}

struct JournalScan {
  std::vector<JournalEntry> entries;
  std::size_t dropped = 0;      ///< lines past the valid prefix
  std::size_t valid_bytes = 0;  ///< byte length of the valid prefix
  /// The final valid line is durable but missing its '\n' (a crash cut
  /// exactly the terminator); an append right after it would glue on.
  bool unterminated_tail = false;
};

// Without `keep_entries` the scan only finds the valid prefix (what
// RunJournal's tail repair needs) and builds no entry.
JournalScan scan_journal(const std::string& contents, bool keep_entries) {
  JournalScan scan;
  bool valid = true;
  std::size_t start = 0;
  while (start < contents.size()) {
    std::size_t end = contents.find('\n', start);
    bool terminated = true;
    if (end == std::string::npos) {
      end = contents.size();  // torn final line without a newline
      terminated = false;
    }
    const std::string line = contents.substr(start, end - start);
    start = end + 1;
    if (!valid) {
      ++scan.dropped;
      continue;
    }
    JournalEntry entry;
    // The checksummed prefix is everything before `,"crc":"..."}`;
    // recompute and compare.
    const std::string marker = ",\"crc\":\"";
    const std::size_t at = line.rfind(marker);
    bool ok = false;
    if (at != std::string::npos &&
        line.size() == at + marker.size() + 8 + 2 &&
        line.compare(line.size() - 2, 2, "\"}") == 0) {
      const std::string prefix = line.substr(0, at);
      const std::string crc_hex = line.substr(at + marker.size(), 8);
      ok = hex32(crc32(prefix)) == crc_hex &&
           parse_line(line, keep_entries ? &entry : nullptr);
    }
    if (ok) {
      if (keep_entries) {
        scan.entries.push_back(std::move(entry));
      }
      scan.valid_bytes = terminated ? end + 1 : end;
      scan.unterminated_tail = !terminated;
    } else {
      // First bad line: everything from here on is the torn tail.
      valid = false;
      ++scan.dropped;
    }
  }
  return scan;
}

}  // namespace

std::string JournalEntry::get(const std::string& key,
                              const std::string& fallback) const {
  const auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

std::uint64_t JournalEntry::get_u64(const std::string& key,
                                    std::uint64_t fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    return fallback;
  }
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

double JournalEntry::get_double(const std::string& key,
                                double fallback) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    return fallback;
  }
  return std::strtod(it->second.c_str(), nullptr);
}

RunJournal::RunJournal(std::string path) : path_(std::move(path)) {
  // Repair the torn tail a crash mid-append leaves behind BEFORE
  // opening for append.  O_APPEND would glue the next record onto the
  // torn bytes, merging both into one CRC-invalid line — so the record
  // that re-ran the lost trial would itself be unreadable on the next
  // resume.  Truncating to the valid prefix (and completing a final
  // line whose '\n' the crash cut) makes a resumed journal
  // byte-identical to one that never crashed.
  std::string contents;
  bool complete_newline = false;
  if (slurp_file(path_, contents) && !contents.empty()) {
    const JournalScan scan = scan_journal(contents, false);
    if (scan.valid_bytes < contents.size() &&
        io::ops().truncate(path_.c_str(),
                           static_cast<long>(scan.valid_bytes)) != 0) {
      throw CheckpointError(std::string("cannot repair torn journal tail: ") +
                                std::strerror(errno),
                            path_);
    }
    complete_newline = scan.unterminated_tail;
  }
  fd_ = io::ops().open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw CheckpointError(std::string("cannot open journal: ") +
                              std::strerror(errno),
                          path_);
  }
  if (complete_newline &&
      (!io::write_all(fd_, "\n", 1) || io::ops().fsync(fd_) != 0)) {
    throw CheckpointError(std::string("cannot repair torn journal tail: ") +
                              std::strerror(errno),
                          path_);
  }
}

RunJournal::~RunJournal() {
  if (fd_ >= 0) {
    io::ops().close(fd_);
  }
}

void RunJournal::append(const JournalEntry& entry) {
  std::string line = render_prefix(entry);
  const std::uint32_t crc = crc32(line);
  line += line.size() > 1 ? ",\"crc\":\"" : "\"crc\":\"";
  line += hex32(crc);
  line += "\"}\n";

  if (!io::write_all(fd_, line.data(), line.size())) {
    throw CheckpointError(std::string("journal write failed: ") +
                              std::strerror(errno),
                          path_);
  }
  if (io::ops().fsync(fd_) != 0) {
    throw CheckpointError(std::string("journal fsync failed: ") +
                              std::strerror(errno),
                          path_);
  }
  ++appended_;
}

std::vector<JournalEntry> read_journal(const std::string& path,
                                       std::size_t* dropped_tail) {
  std::string contents;
  JournalScan scan;
  if (slurp_file(path, contents)) {
    scan = scan_journal(contents, true);
  }
  if (dropped_tail != nullptr) {
    *dropped_tail = scan.dropped;
  }
  return std::move(scan.entries);
}

void create_state_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return;
  }
  throw CheckpointError(std::string("cannot create state directory: ") +
                            std::strerror(errno),
                        path);
}

std::optional<std::string> config_difference(const JournalEntry& found,
                                             const JournalEntry& expected) {
  std::map<std::string, std::string> keys = found.fields;
  keys.insert(expected.fields.begin(), expected.fields.end());
  for (const auto& [key, unused] : keys) {
    if (key != "crc" && (found.has(key) != expected.has(key) ||
                         found.get(key) != expected.get(key))) {
      return key;
    }
  }
  return std::nullopt;
}

}  // namespace qpf::journal
