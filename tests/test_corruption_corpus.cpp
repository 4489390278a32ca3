// Corruption corpus for the persistence layer (PR 4): every truncation
// and every single-bit flip of a checkpoint file must surface as a
// typed CheckpointError; truncated snapshot streams must fail with the
// byte offset; and a mangled journal must always read as a valid
// prefix — never a crash, never a silent partial load.
#include <cstdio>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/chp_core.h"
#include "arch/frame_core.h"
#include "circuit/error.h"
#include "core/pauli_frame.h"

#include "journal/run_journal.h"
#include "journal/snapshot.h"
#include "stabilizer/tableau.h"

namespace qpf::journal {
namespace {

class CorruptionCorpusTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::vector<std::uint8_t> file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> raw{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    return {raw.begin(), raw.end()};
  }

  void write_bytes(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".ckpt");
};

// A representative snapshot payload exercising every element type the
// stack serializers use.
std::vector<std::uint8_t> sample_payload() {
  SnapshotWriter out;
  out.tag("corpus");
  out.write_bool(true);
  out.write_u8(7);
  out.write_u64(0x1234'5678'9abc'def0ULL);
  out.write_double(2.5e-3);
  out.write_string("seventeen qubits");
  out.write_size(17);
  return out.bytes();
}

// Consume a sample_payload() stream completely; any defect must
// surface as a CheckpointError from one of the typed reads.
void read_sample(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader in(bytes);
  in.expect_tag("corpus");
  (void)in.read_bool();
  (void)in.read_u8();
  (void)in.read_u64();
  (void)in.read_double();
  (void)in.read_string();
  (void)in.read_size();
}

TEST_F(CorruptionCorpusTest, CheckpointFileEveryTruncationIsTyped) {
  const std::vector<std::uint8_t> payload = sample_payload();
  write_checkpoint_file(path_, payload);
  const std::vector<std::uint8_t> valid = file_bytes();
  ASSERT_GT(valid.size(), payload.size());  // header armor is present
  EXPECT_EQ(read_checkpoint_file(path_), payload);

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    write_bytes({valid.begin(), valid.begin() + cut});
    EXPECT_THROW((void)read_checkpoint_file(path_), CheckpointError)
        << "truncation to " << cut << " bytes loaded silently";
  }
}

TEST_F(CorruptionCorpusTest, CheckpointFileEveryBitFlipIsTyped) {
  const std::vector<std::uint8_t> payload = sample_payload();
  write_checkpoint_file(path_, payload);
  const std::vector<std::uint8_t> valid = file_bytes();

  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mangled = valid;
      mangled[byte] ^= static_cast<std::uint8_t>(1u << bit);
      write_bytes(mangled);
      EXPECT_THROW((void)read_checkpoint_file(path_), CheckpointError)
          << "bit " << bit << " of byte " << byte << " flipped silently";
    }
  }
}

TEST_F(CorruptionCorpusTest, MissingCheckpointIsTyped) {
  EXPECT_THROW((void)read_checkpoint_file(path_), CheckpointError);
}

TEST(SnapshotStreamCorpusTest, EveryTruncationFailsWithTheByteOffset) {
  const std::vector<std::uint8_t> valid = sample_payload();
  ASSERT_NO_THROW(read_sample(valid));

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(valid.begin(),
                                              valid.begin() + cut);
    try {
      read_sample(truncated);
      FAIL() << "truncation to " << cut << " bytes read silently";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("byte offset"),
                std::string::npos)
          << "no offset in: " << error.what();
    }
  }
}

TEST(SnapshotStreamCorpusTest, BitFlipsNeverEscapeTheTypedError) {
  // A raw stream has no CRC armor (that is the checkpoint *file*'s
  // job), so a value-byte flip can legally decode to a different value.
  // The contract here is weaker but still vital: a flip either decodes
  // or throws CheckpointError — it never crashes or throws anything
  // else.
  const std::vector<std::uint8_t> valid = sample_payload();
  std::size_t typed_failures = 0;
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mangled = valid;
      mangled[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        read_sample(mangled);
      } catch (const CheckpointError&) {
        ++typed_failures;
      }
      // Any other exception type propagates and fails the test.
    }
  }
  // Type-tag and length bytes must have tripped the typed path.
  EXPECT_GT(typed_failures, 0u);
}

// --- Size fields that loaders allocate from -------------------------

/// A stream and the offsets of the u64 payloads of its size fields: the
/// values a loader sizes an allocation by.
struct SizedStream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> sizes;
};

/// The offset of the payload of the u64 element at the reader's cursor
/// (after its one-byte type tag); then read past it.
std::size_t size_field(SnapshotReader& in) {
  const std::size_t at = in.offset() + 1;
  (void)in.read_size();
  return at;
}

SizedStream tableau_stream() {
  stab::Tableau tableau(17, 5);
  tableau.apply_h(3);
  tableau.apply_cnot(3, 9);
  SnapshotWriter out;
  tableau.save(out);
  SnapshotReader in(out.bytes());
  in.expect_tag("tableau2");
  return {out.bytes(), {size_field(in)}};
}

SizedStream frame_stream(pf::Protection protection) {
  pf::PauliFrame frame(17, protection);
  SnapshotWriter out;
  frame.save(out);
  SnapshotReader in(out.bytes());
  in.expect_tag("pauli-frame");
  (void)in.read_u8();
  std::vector<std::size_t> sizes;
  // The records, the guard and the two shadow banks.
  for (int field = 0; field < 4; ++field) {
    sizes.push_back(in.offset() + 1);
    std::vector<std::uint8_t> block(in.read_size());
    if (!block.empty()) {
      in.read_bytes(block.data(), block.size());
    }
  }
  return {out.bytes(), sizes};
}

SizedStream chp_core_stream() {
  arch::ChpCore core(3);
  core.create_qubits(17);
  SnapshotWriter out;
  core.save_state(out);
  SnapshotReader in(out.bytes());
  in.expect_tag("chp-core");
  (void)in.read_u64();
  (void)in.read_bool();
  SnapshotReader tableau = in;
  tableau.expect_tag("tableau2");
  const std::size_t qubits = size_field(tableau);
  (void)stab::Tableau::load(in);
  return {out.bytes(), {qubits, size_field(in)}};
}

TEST(SnapshotStreamCorpusTest, SizeFieldFlipsFailBeforeAllocating) {
  // A flipped size must be rejected before anything is allocated for
  // it: bit 20 of the qubit count asks the tableau for terabytes, and a
  // high bit of a guard size for gigabytes.  Every loader below either
  // decodes the flip or throws CheckpointError; anything else (such as
  // std::bad_alloc) fails the test.
  const auto load_tableau = [](SnapshotReader& in) {
    (void)stab::Tableau::load(in);
  };
  const auto load_frame = [](SnapshotReader& in) {
    (void)pf::PauliFrame::load(in);
  };
  const auto load_chp = [](SnapshotReader& in) {
    arch::ChpCore core;
    core.load_state(in);
  };
  const auto load_frame_core = [](SnapshotReader& in) {
    arch::FrameCore core;
    core.load_state(in);
  };
  struct Case {
    const char* name;
    SizedStream stream;
    std::function<void(SnapshotReader&)> load;
  };
  const Case cases[] = {
      {"tableau", tableau_stream(), load_tableau},
      {"frame/parity", frame_stream(pf::Protection::kParity), load_frame},
      {"frame/vote", frame_stream(pf::Protection::kVote), load_frame},
      {"chp-core", chp_core_stream(), load_chp},
      {"chp-core into FrameCore", chp_core_stream(), load_frame_core},
  };
  for (const Case& c : cases) {
    ASSERT_FALSE(c.stream.sizes.empty()) << c.name;
    for (const std::size_t at : c.stream.sizes) {
      for (int bit = 0; bit < 64; ++bit) {
        std::vector<std::uint8_t> mangled = c.stream.bytes;
        mangled[at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        SnapshotReader in(mangled);
        try {
          c.load(in);  // a flip that keeps the stream consistent decodes
        } catch (const CheckpointError&) {
        }
      }
    }
  }
}

class JournalCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RunJournal journal(path_);
    for (std::uint64_t trial = 0; trial < 5; ++trial) {
      JournalEntry entry;
      entry.fields["kind"] = "trial";
      entry.fields["trial"] = std::to_string(trial);
      entry.fields["ler"] = "0.125";
      journal.append(entry);
    }
    std::ifstream in(path_, std::ios::binary);
    valid_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void write_contents(const std::string& contents) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  // The mangled journal must read as a valid prefix of the original:
  // no throw, in-order entries, nothing invented.
  void expect_valid_prefix() const {
    std::size_t dropped = 0;
    const std::vector<JournalEntry> entries = read_journal(path_, &dropped);
    ASSERT_LE(entries.size(), 5u);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].get("kind"), "trial");
      EXPECT_EQ(entries[i].get_u64("trial"), i);
    }
  }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".jsonl");
  std::string valid_;
};

TEST_F(JournalCorpusTest, EveryTruncationReadsAsAValidPrefix) {
  for (std::size_t cut = 0; cut < valid_.size(); ++cut) {
    write_contents(valid_.substr(0, cut));
    expect_valid_prefix();
  }
}

TEST_F(JournalCorpusTest, EveryBitFlipReadsAsAValidPrefix) {
  for (std::size_t byte = 0; byte < valid_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = valid_;
      mangled[byte] = static_cast<char>(
          static_cast<unsigned char>(mangled[byte]) ^ (1u << bit));
      write_contents(mangled);
      expect_valid_prefix();
    }
  }
}

TEST_F(JournalCorpusTest, GarbageTailEndsTheScanWithACount) {
  write_contents(valid_ + "{\"kind\":\"trial\",\"trial\":9,\"crc\":\"dead");
  std::size_t dropped = 0;
  const std::vector<JournalEntry> entries = read_journal(path_, &dropped);
  EXPECT_EQ(entries.size(), 5u);
  EXPECT_EQ(dropped, 1u);
}

}  // namespace
}  // namespace qpf::journal
