// Round-trip and corruption tests for the snapshot subsystem
// (journal/snapshot.h): tagged streams, simulator state serialization,
// CRC-armored checkpoint files, and mid-run experiment restore.
//
// The corruption tests are the robustness contract: a damaged or
// truncated checkpoint must surface as qpf::CheckpointError — never a
// crash, never a silently wrong simulator state.
#include "journal/snapshot.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chp_core.h"
#include "arch/qx_core.h"
#include "circuit/bug_plant.h"
#include "circuit/error.h"
#include "core/pauli_frame.h"
#include "io/fault_fs.h"
#include "ler_common.h"
#include "stabilizer/tableau.h"
#include "statevector/state.h"
#include "seed_support.h"

namespace qpf {
namespace {

using journal::SnapshotReader;
using journal::SnapshotWriter;

// --- Stream primitives ----------------------------------------------

TEST(SnapshotStreamTest, PrimitiveRoundTrip) {
  SnapshotWriter out;
  out.tag("primitives");
  out.write_bool(true);
  out.write_u8(0xab);
  out.write_u32(0xdeadbeef);
  out.write_u64(0x0123456789abcdefULL);
  out.write_i64(-42);
  out.write_double(0.1 + 0.2);  // not exactly 0.3: must round-trip bits
  out.write_string("hello journal");

  SnapshotReader in(out.bytes());
  in.expect_tag("primitives");
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read_u8(), 0xab);
  EXPECT_EQ(in.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(in.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.read_i64(), -42);
  EXPECT_EQ(in.read_double(), 0.1 + 0.2);
  EXPECT_EQ(in.read_string(), "hello journal");
  EXPECT_TRUE(in.exhausted());
}

TEST(SnapshotStreamTest, RngEngineRoundTripsExactly) {
  const std::uint64_t seed = 20260806;
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 1000; ++i) {
    (void)rng();  // advance to a mid-stream position
  }
  SnapshotWriter out;
  out.write_rng(rng);
  SnapshotReader in(out.bytes());
  std::mt19937_64 restored = in.read_rng();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(restored(), rng()) << "draw " << i;
  }
}

TEST(SnapshotStreamTest, TagMismatchThrows) {
  SnapshotWriter out;
  out.tag("alpha");
  SnapshotReader in(out.bytes());
  EXPECT_THROW(in.expect_tag("beta"), CheckpointError);
}

TEST(SnapshotStreamTest, TypeMismatchThrows) {
  SnapshotWriter out;
  out.write_u32(7);
  SnapshotReader in(out.bytes());
  EXPECT_THROW((void)in.read_double(), CheckpointError);
}

TEST(SnapshotStreamTest, TruncatedStreamThrows) {
  SnapshotWriter out;
  out.write_string("a string long enough to truncate");
  std::vector<std::uint8_t> bytes = out.bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    SnapshotReader in(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + keep));
    EXPECT_THROW((void)in.read_string(), CheckpointError) << "keep=" << keep;
  }
}

TEST(SnapshotStreamTest, GarbageBytesNeverCrash) {
  const std::uint64_t seed = 0xfeedface;
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(1 + rng() % 64);
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng());
    }
    SnapshotReader in(garbage);
    // Whatever the bytes say, the reader must fail structurally, not
    // crash or hand back a value of the wrong type silently.
    try {
      in.expect_tag("ler-trial");
      (void)in.read_u64();
      (void)in.read_rng();
    } catch (const CheckpointError&) {
      // expected on almost every draw
    }
  }
}

// --- Simulator state round trips ------------------------------------

TEST(SnapshotStateTest, TableauRoundTripPreservesFutureMeasurements) {
  const std::uint64_t seed = 977;
  QPF_ANNOUNCE_SEED(seed);
  stab::Tableau original(6, seed);
  original.apply_h(0);
  original.apply_cnot(0, 1);
  original.apply_s(2);
  original.apply_cz(2, 3);
  (void)original.measure(1);  // collapse midway; RNG state now matters

  SnapshotWriter out;
  original.save(out);
  SnapshotReader in(out.bytes());
  stab::Tableau restored = stab::Tableau::load(in);
  ASSERT_EQ(restored.num_qubits(), original.num_qubits());

  // The restored tableau must produce the *same* random measurement
  // record as the original from here on (stabilizers + RNG both saved).
  for (int round = 0; round < 32; ++round) {
    for (Qubit q = 0; q < 6; ++q) {
      original.apply_h(q);
      restored.apply_h(q);
      const auto a = original.measure(q);
      const auto b = restored.measure(q);
      ASSERT_EQ(a.value, b.value) << "round " << round << " qubit " << q;
      ASSERT_EQ(a.deterministic, b.deterministic);
    }
  }
}

TEST(SnapshotStateTest, StateVectorRoundTripsBitExactly) {
  sv::StateVector state(4);
  // A non-trivial, non-uniform state: hand-build amplitudes.
  auto& amps = state.amplitudes();
  for (std::size_t i = 0; i < amps.size(); ++i) {
    amps[i] = {std::cos(0.1 * static_cast<double>(i + 1)),
               std::sin(0.2 * static_cast<double>(i + 1))};
  }
  state.normalize();

  SnapshotWriter out;
  state.save(out);
  SnapshotReader in(out.bytes());
  const sv::StateVector restored = sv::StateVector::load(in);
  ASSERT_EQ(restored.num_qubits(), state.num_qubits());
  for (std::size_t i = 0; i < amps.size(); ++i) {
    // Bit-exact, not approximately equal.
    EXPECT_EQ(restored.amplitude(i).real(), amps[i].real());
    EXPECT_EQ(restored.amplitude(i).imag(), amps[i].imag());
  }
}

TEST(SnapshotStateTest, PauliFrameRoundTripsUnderEveryProtection) {
  using pf::PauliFrame;
  using pf::PauliRecord;
  using pf::Protection;
  for (const Protection p :
       {Protection::kNone, Protection::kParity, Protection::kVote}) {
    PauliFrame frame(5, p);
    frame.track(GateType::kX, 0);
    frame.track(GateType::kZ, 1);
    frame.track(GateType::kX, 2);
    frame.track(GateType::kZ, 2);

    SnapshotWriter out;
    frame.save(out);
    SnapshotReader in(out.bytes());
    PauliFrame restored = PauliFrame::load(in);
    EXPECT_EQ(restored.protection(), p);
    ASSERT_EQ(restored.num_qubits(), frame.num_qubits());
    for (Qubit q = 0; q < 5; ++q) {
      EXPECT_EQ(restored.record(q), frame.record(q)) << "qubit " << q;
    }
    EXPECT_EQ(restored.str(), frame.str());
  }
}

TEST(SnapshotStateTest, PauliFrameRoundTripsLatentCorruptionVerbatim) {
  using pf::PauliFrame;
  using pf::PauliRecord;
  // A frame carrying an undetected fault must checkpoint *as is*: the
  // restored frame detects the corruption exactly like the original
  // would have, so crash-resume does not mask classical faults.
  PauliFrame frame(3, pf::Protection::kVote);
  frame.track(GateType::kX, 1);
  frame.corrupt_record(0, PauliRecord::kZ);  // primary bank only

  SnapshotWriter out;
  frame.save(out);
  SnapshotReader in(out.bytes());
  PauliFrame restored = PauliFrame::load(in);

  // Guarded reads on both repair the fault by majority vote.
  EXPECT_EQ(restored.record(0), frame.record(0));
  EXPECT_EQ(restored.health().detected, frame.health().detected);
  EXPECT_EQ(restored.health().corrected, frame.health().corrected);
}

template <typename CoreT>
class SnapshotCoreTest : public ::testing::Test {};

using SnapshotCoreTypes = ::testing::Types<arch::ChpCore, arch::QxCore>;
TYPED_TEST_SUITE(SnapshotCoreTest, SnapshotCoreTypes);

TYPED_TEST(SnapshotCoreTest, MidCircuitSaveRestoreMatchesOriginal) {
  const std::uint64_t seed = 4242;
  QPF_ANNOUNCE_SEED(seed);
  TypeParam original{seed};
  original.create_qubits(4);
  ASSERT_TRUE(original.snapshot_supported());

  Circuit prologue{"prologue"};
  prologue.append(GateType::kH, 0);
  prologue.append(GateType::kCnot, 0, 1);
  prologue.append(GateType::kH, 2);
  prologue.append(GateType::kMeasureZ, 2);
  arch::run(original, prologue);

  SnapshotWriter out;
  original.save_state(out);

  TypeParam restored{seed + 999};  // different seed: must be overwritten
  restored.create_qubits(4);
  SnapshotReader in(out.bytes());
  restored.load_state(in);
  EXPECT_TRUE(in.exhausted());

  // Both cores now continue through random measurements; the records
  // must agree because stabilizers/amplitudes AND the RNG were saved.
  Circuit epilogue{"epilogue"};
  epilogue.append(GateType::kH, 3);
  epilogue.append(GateType::kMeasureZ, 3);
  epilogue.append(GateType::kMeasureZ, 0);
  epilogue.append(GateType::kMeasureZ, 1);
  for (int round = 0; round < 16; ++round) {
    arch::run(original, epilogue);
    arch::run(restored, epilogue);
    const arch::BinaryState a = original.get_state();
    const arch::BinaryState b = restored.get_state();
    ASSERT_EQ(a, b) << "round " << round;
  }
}

// --- Checkpoint file armor ------------------------------------------

class CheckpointFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::vector<std::uint8_t> sample_payload() const {
    SnapshotWriter out;
    out.tag("sample");
    out.write_u64(123456789);
    out.write_string("checkpoint payload");
    return out.bytes();
  }

  std::string path_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      std::string(".ckpt");
};

TEST_F(CheckpointFileTest, WriteReadRoundTrip) {
  const auto payload = sample_payload();
  journal::write_checkpoint_file(path_, payload);
  EXPECT_EQ(journal::read_checkpoint_file(path_), payload);
}

TEST_F(CheckpointFileTest, MissingFileThrows) {
  EXPECT_THROW((void)journal::read_checkpoint_file("no_such_file.ckpt"),
               CheckpointError);
}

TEST_F(CheckpointFileTest, EveryByteFlipIsDetected) {
  const auto payload = sample_payload();
  journal::write_checkpoint_file(path_, payload);
  std::vector<std::uint8_t> file;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t byte = 0;
    while (std::fread(&byte, 1, 1, f) == 1) {
      file.push_back(byte);
    }
    std::fclose(f);
  }
  ASSERT_GT(file.size(), 32u);  // header + payload

  // Flip every single bit position's byte in turn: header corruption,
  // version corruption, length corruption, payload corruption — all of
  // it must be caught by the CRC armor, none of it may crash.
  for (std::size_t i = 0; i < file.size(); ++i) {
    std::vector<std::uint8_t> damaged = file;
    damaged[i] ^= 0x40;
    {
      std::FILE* f = std::fopen(path_.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(damaged.data(), 1, damaged.size(), f);
      std::fclose(f);
    }
    EXPECT_THROW((void)journal::read_checkpoint_file(path_), CheckpointError)
        << "undetected corruption at byte " << i;
  }
}

TEST_F(CheckpointFileTest, TruncationAtEveryLengthIsDetected) {
  const auto payload = sample_payload();
  journal::write_checkpoint_file(path_, payload);
  std::vector<std::uint8_t> file;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t byte = 0;
    while (std::fread(&byte, 1, 1, f) == 1) {
      file.push_back(byte);
    }
    std::fclose(f);
  }
  for (std::size_t keep = 0; keep < file.size(); ++keep) {
    {
      std::FILE* f = std::fopen(path_.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(file.data(), 1, keep, f);
      std::fclose(f);
    }
    EXPECT_THROW((void)journal::read_checkpoint_file(path_), CheckpointError)
        << "undetected truncation at " << keep << " bytes";
  }
}

TEST_F(CheckpointFileTest, WriteLeavesNoTempFileBehind) {
  journal::write_checkpoint_file(path_, sample_payload());
  std::FILE* tmp = std::fopen((path_ + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) {
    std::fclose(tmp);
  }
}

/// RAII: install a counting FaultFs so every durable op the code under
/// test performs lands in an op log, then parse the log back.  This
/// replaces the old observer hook in write_checkpoint_file — the seam
/// sees *all* durable I/O, so the durability protocol itself (not just
/// one hook site) is what the assertions check.
struct OpLogCapture {
  explicit OpLogCapture(std::string log_path)
      : log_path_(std::move(log_path)),
        fs_(make_plan(log_path_)),
        guard_(fs_) {}
  ~OpLogCapture() { std::remove(log_path_.c_str()); }

  static io::FaultPlan make_plan(const std::string& log) {
    io::FaultPlan plan;
    plan.mode = io::FaultPlan::Mode::kCount;
    plan.log_path = log;
    return plan;
  }

  struct Op {
    std::string kind;
    std::string path;
  };

  [[nodiscard]] std::vector<Op> ops() const {
    std::vector<Op> out;
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string ordinal;
      Op op;
      fields >> ordinal >> op.kind;
      std::getline(fields, op.path);
      if (!op.path.empty() && op.path.front() == ' ') {
        op.path.erase(0, 1);
      }
      out.push_back(std::move(op));
    }
    return out;
  }

  std::string log_path_;
  io::FaultFs fs_;
  io::FaultFsGuard guard_;
};

TEST_F(CheckpointFileTest, RenameIsFollowedByParentDirectoryFsync) {
  // A rename alone is not durable: until the parent directory's metadata
  // hits disk, power loss can roll the rename back and the "committed"
  // checkpoint silently vanishes.  The write path must therefore fsync
  // the parent directory after every rename — observed here through the
  // FaultFs op log, which records every durable operation in order.
  OpLogCapture capture(path_ + ".oplog");
  journal::write_checkpoint_file(path_, sample_payload());
  const auto ops = capture.ops();
  ASSERT_GE(ops.size(), 2u);
  EXPECT_EQ(ops[ops.size() - 2].kind, "rename");
  EXPECT_EQ(ops.back().kind, "fsync");
  EXPECT_EQ(ops.back().path, ".");  // path_ is relative to the test cwd
}

TEST_F(CheckpointFileTest, DirectoryFsyncTargetsTheCheckpointParent) {
  OpLogCapture capture(path_ + ".oplog");
  const std::string dir = path_ + ".dir";
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string nested = dir + "/nested.ckpt";
  journal::write_checkpoint_file(nested, sample_payload());
  auto ops = capture.ops();
  ASSERT_GE(ops.size(), 2u);
  EXPECT_EQ(ops.back().kind, "fsync");
  EXPECT_EQ(ops.back().path, dir);
  // Every write syncs its own parent: a second checkpoint elsewhere
  // must not coalesce with or replace the first observation.
  journal::write_checkpoint_file(path_, sample_payload());
  ops = capture.ops();
  EXPECT_EQ(ops.back().kind, "fsync");
  EXPECT_EQ(ops.back().path, ".");
  std::remove(nested.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(CheckpointFileTest, MissingParentDirectoryThrowsNotSilentlyDrops) {
  // If the parent directory cannot even be opened, the checkpoint's
  // durability cannot be guaranteed; that must surface as a
  // CheckpointError, not a best-effort shrug.  The op log proves no
  // rename (and hence no false "committed" state) ever happened.
  OpLogCapture capture(path_ + ".oplog");
  EXPECT_THROW(
      journal::write_checkpoint_file("no_such_dir/x.ckpt", sample_payload()),
      CheckpointError);
  for (const auto& op : capture.ops()) {
    EXPECT_NE(op.kind, "rename");
    EXPECT_NE(op.kind, "fsync");
  }
}

TEST_F(CheckpointFileTest, PlantedBug13DropsTheDirectoryFsync) {
  // Mutation self-check: planted bug 13 skips the parent-directory
  // fsync.  The conformance signal the io-fault fuzz oracle relies on —
  // "a rename is always followed by a parent-dir fsync" — must actually
  // distinguish the mutant from the clean build.
  struct PlantGuard {
    explicit PlantGuard(int n) { plant::set_for_testing(n); }
    ~PlantGuard() { plant::set_for_testing(0); }
  } planted(13);
  OpLogCapture capture(path_ + ".oplog");
  journal::write_checkpoint_file(path_, sample_payload());
  const auto ops = capture.ops();
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.back().kind, "rename")
      << "bug 13 should leave the rename as the final durable op";
}

// --- Whole-experiment checkpoint ------------------------------------

bench::LerConfig trial_config(int distance, bool pauli_frame,
                              std::uint64_t seed) {
  bench::LerConfig config;
  config.ninja_options.distance = distance;
  config.physical_error_rate = 0.02;
  config.with_pauli_frame = pauli_frame;
  config.seed = seed;
  config.target_logical_errors = 1000;
  return config;
}

TEST(SnapshotExperimentTest, DistanceFiveLerTrialResumesIdentically) {
  const std::uint64_t seed = 31337;
  QPF_ANNOUNCE_SEED(seed);
  const bench::LerConfig config = trial_config(5, true, seed);
  bench::LerTrial original(config);
  original.step();
  original.step();
  SnapshotWriter saved;
  original.save(saved);

  bench::LerTrial restored(config);
  SnapshotReader in(saved.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());

  // Continue both: the resumed trial must be indistinguishable from the
  // uninterrupted one, down to its next snapshot.
  for (int window = 0; window < 4; ++window) {
    original.step();
    restored.step();
    EXPECT_EQ(restored.logical_errors(), original.logical_errors())
        << "window " << window;
  }
  SnapshotWriter a;
  SnapshotWriter b;
  original.save(a);
  restored.save(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

TEST(SnapshotExperimentTest, ConfigMismatchThrowsNotCrashes) {
  struct Shape {
    int distance;
    bool pauli_frame;
  };
  const Shape shapes[] = {{3, true}, {3, false}, {5, true}, {5, false},
                          {7, true}};
  for (const Shape& from : shapes) {
    bench::LerTrial source(trial_config(from.distance, from.pauli_frame, 7));
    source.step();
    SnapshotWriter out;
    source.save(out);
    for (const Shape& to : shapes) {
      if (to.distance == from.distance && to.pauli_frame == from.pauli_frame) {
        continue;
      }
      bench::LerTrial target(trial_config(to.distance, to.pauli_frame, 7));
      SnapshotReader in(out.bytes());
      EXPECT_THROW(target.load(in), CheckpointError)
          << "d=" << from.distance << " frame=" << from.pauli_frame
          << " into d=" << to.distance << " frame=" << to.pauli_frame;
    }
  }
}

// The row-major "tableau" layout of the first tableau kernels is no
// longer read: nothing writes it, and no committed fixture holds it.
TEST(SnapshotStateTest, RowMajorTableauTagIsRejected) {
  stab::Tableau reference(5, 99);
  SnapshotWriter current;
  reference.save(current);
  SnapshotWriter legacy;
  legacy.tag("tableau");
  legacy.write_size(5);
  SnapshotReader in(legacy.bytes());
  EXPECT_THROW((void)stab::Tableau::load(in), CheckpointError);
  SnapshotReader ok(current.bytes());
  EXPECT_NO_THROW((void)stab::Tableau::load(ok));
}

}  // namespace
}  // namespace qpf
