// Tests for the durable run journal (journal/run_journal.h): fsync'd
// JSONL appends with per-line CRC trailers, and resume-oriented reads
// that tolerate the torn tail a mid-write crash leaves behind.
#include "journal/run_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "circuit/error.h"

namespace qpf::journal {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] JournalEntry trial_entry(std::uint64_t index) const {
    JournalEntry entry;
    entry.fields["kind"] = "trial";
    entry.fields["trial"] = std::to_string(index);
    entry.fields["windows"] = std::to_string(100 + index);
    entry.fields["ler"] = "0.25";
    entry.fields["note"] = "plain text value";
    return entry;
  }

  [[nodiscard]] std::string file_contents() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_contents(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".jsonl");
};

TEST_F(JournalTest, AppendReadRoundTrip) {
  {
    RunJournal journal(path_);
    journal.append(trial_entry(0));
    journal.append(trial_entry(1));
    EXPECT_EQ(journal.appended(), 2u);
  }
  std::size_t dropped = 99;
  const auto entries = read_journal(path_, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].get("kind"), "trial");
  EXPECT_EQ(entries[1].get_u64("trial"), 1u);
  EXPECT_EQ(entries[1].get_u64("windows"), 101u);
  EXPECT_DOUBLE_EQ(entries[0].get_double("ler"), 0.25);
  EXPECT_EQ(entries[0].get("note"), "plain text value");
  EXPECT_EQ(entries[0].get("absent", "fallback"), "fallback");
  EXPECT_FALSE(entries[0].has("absent"));
}

TEST_F(JournalTest, ReopenAppendsInsteadOfTruncating) {
  {
    RunJournal journal(path_);
    journal.append(trial_entry(0));
  }
  {
    RunJournal journal(path_);
    journal.append(trial_entry(1));
    EXPECT_EQ(journal.appended(), 1u);  // this handle's count only
  }
  EXPECT_EQ(read_journal(path_).size(), 2u);
}

TEST_F(JournalTest, AbsentFileReadsAsEmpty) {
  std::size_t dropped = 99;
  EXPECT_TRUE(read_journal("definitely_missing.jsonl", &dropped).empty());
  EXPECT_EQ(dropped, 0u);
}

TEST_F(JournalTest, TornTailIsDroppedNotFatal) {
  {
    RunJournal journal(path_);
    journal.append(trial_entry(0));
    journal.append(trial_entry(1));
    journal.append(trial_entry(2));
  }
  const std::string full = file_contents();
  // Cut the file mid-way through the final line — the write that a
  // crash interrupted.  Every truncation point must yield the intact
  // two-entry prefix, never an error and never a garbled third entry.
  // (Stop short of cutting just the final newline: a complete line
  // missing only its terminator is still a valid, durable record.)
  const std::size_t second_end = full.find('\n', full.find('\n') + 1) + 1;
  for (std::size_t cut = second_end; cut + 1 < full.size(); ++cut) {
    write_contents(full.substr(0, cut));
    std::size_t dropped = 0;
    const auto entries = read_journal(path_, &dropped);
    ASSERT_EQ(entries.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(entries[1].get_u64("trial"), 1u);
    if (cut > second_end) {
      EXPECT_EQ(dropped, 1u) << "cut=" << cut;
    }
  }
}

TEST_F(JournalTest, BitFlippedLineEndsThePrefix) {
  {
    RunJournal journal(path_);
    journal.append(trial_entry(0));
    journal.append(trial_entry(1));
    journal.append(trial_entry(2));
  }
  std::string contents = file_contents();
  // Corrupt a digit inside the middle line's payload: its CRC trailer
  // no longer matches, so the valid prefix is just the first entry.
  const std::size_t line2 = contents.find('\n') + 1;
  const std::size_t payload = contents.find("windows", line2);
  ASSERT_NE(payload, std::string::npos);
  contents[payload + 10] ^= 0x01;
  write_contents(contents);

  std::size_t dropped = 0;
  const auto entries = read_journal(path_, &dropped);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].get_u64("trial"), 0u);
  EXPECT_EQ(dropped, 2u);
}

TEST_F(JournalTest, LineWithoutCrcFieldIsRejected) {
  write_contents("{\"kind\": \"trial\", \"trial\": 0}\n");
  std::size_t dropped = 0;
  EXPECT_TRUE(read_journal(path_, &dropped).empty());
  EXPECT_EQ(dropped, 1u);
}

TEST_F(JournalTest, UnopenableJournalThrows) {
  EXPECT_THROW(RunJournal("/nonexistent-dir/journal.jsonl"), CheckpointError);
}

TEST_F(JournalTest, ValuesWithQuotesAndEscapesRoundTrip) {
  JournalEntry entry;
  entry.fields["kind"] = "config";
  entry.fields["path"] = "dir/with \"quotes\" and \\slashes\\";
  {
    RunJournal journal(path_);
    journal.append(entry);
  }
  const auto entries = read_journal(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].get("path"), "dir/with \"quotes\" and \\slashes\\");
}

TEST_F(JournalTest, ConfigDifferenceComparesBothKeySetsAndIgnoresTheCrc) {
  JournalEntry expected;
  expected.fields = {{"kind", "config"}, {"seed", "5"}, {"shots", "20"}};
  JournalEntry found = expected;
  found.fields["crc"] = "0badc0de";  // the line's own checksum
  EXPECT_EQ(config_difference(found, expected), std::nullopt);

  // A key only one side has differs, whichever side has it.
  found.fields["supervise"] = "1";
  EXPECT_EQ(config_difference(found, expected), "supervise");
  EXPECT_EQ(config_difference(expected, found), "supervise");

  // The first differing key in key order is named.
  found.fields["seed"] = "6";
  EXPECT_EQ(config_difference(found, expected), "seed");
}

}  // namespace
}  // namespace qpf::journal
