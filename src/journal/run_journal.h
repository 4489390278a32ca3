// RunJournal: the durable per-trial record of a long campaign.
//
// Every completed trial appends one flat JSON object on its own line
// (JSONL).  The final field of every line is "crc", the CRC32 (hex) of
// everything before it, so torn or bit-flipped lines are detectable.
// Each append is fsync'd before returning: once a trial is reported
// durable, a crash — including SIGKILL — cannot lose it.
//
// Reading is resume-oriented: read_journal() returns the longest valid
// prefix of entries and stops at the first truncated or corrupted line
// (the torn tail a kill mid-write leaves behind), so a resumed campaign
// simply re-runs the trial whose record never became durable.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qpf::journal {

/// One journal line: flat string-keyed fields.  Values are stored
/// verbatim (numbers unquoted, strings quoted on disk).
struct JournalEntry {
  std::map<std::string, std::string> fields;

  [[nodiscard]] bool has(const std::string& key) const {
    return fields.count(key) != 0;
  }
  /// Field value, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = {}) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback = 0.0) const;
};

class RunJournal {
 public:
  /// Open (creating or appending) the journal at `path`.  Throws
  /// qpf::CheckpointError when the file cannot be opened.
  explicit RunJournal(std::string path);
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Append one entry and fsync.  Numeric-looking values are written
  /// unquoted; everything else is written as a JSON string.  Throws
  /// qpf::CheckpointError on I/O failure.
  void append(const JournalEntry& entry);

  /// Number of entries appended through this handle.
  [[nodiscard]] std::size_t appended() const noexcept { return appended_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::size_t appended_ = 0;
};

/// Longest valid prefix of the journal at `path`; an absent file reads
/// as empty.  Lines failing the CRC check (or truncated) end the scan.
/// `dropped_tail` (optional) reports how many trailing lines were
/// discarded as torn or corrupt.
[[nodiscard]] std::vector<JournalEntry> read_journal(
    const std::string& path, std::size_t* dropped_tail = nullptr);

/// Create the state directory `path` unless it exists.  Throws
/// qpf::CheckpointError when it cannot be created.
void create_state_directory(const std::string& path);

/// Whether a journal's config line (`found`) belongs to the run whose
/// config line is `expected`: both key sets are compared, "crc" (the
/// line's own checksum) is ignored, and the first key, in key order,
/// whose value differs or that only one line has is returned.  Empty
/// when the lines agree.
[[nodiscard]] std::optional<std::string> config_difference(
    const JournalEntry& found, const JournalEntry& expected);

}  // namespace qpf::journal
