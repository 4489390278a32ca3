// qpf_run's shot journal is its durable record: a resume rebuilds the
// run from it, so its bytes are a format.  Each case reruns a fixed-seed
// journaled run of tests/golden/run-journals/program.qasm and compares
// the journal with the one recorded there, then resumes the finished
// journal and expects the live run's report.  A case was recorded with
//   qpf_run --shots=12 --seed=7 <flags> --checkpoint-dir=DIR program.qasm
// by copying DIR/shots.jsonl to <name>.jsonl.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/runner.h"

namespace qpf::cli {
namespace {

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct GoldenRun {
  std::string name;  ///< file stem under tests/golden/run-journals/
  std::vector<std::string> flags;
};

TEST(RunJournalGoldenTest, EveryRunWritesTheRecordedJournal) {
  const std::filesystem::path golden =
      std::filesystem::path(QPF_TEST_GOLDEN_DIR) / "run-journals";
  const std::vector<GoldenRun> runs = {
      {"plain", {}},
      {"noise-faults-vote",
       {"--error-rate=0.02", "--classical-fault-rate=0.05", "--pauli-frame",
        "--protect-frame=vote", "--validate"}},
      {"supervise-deadline", {"--supervise", "--deadline-ns=100"}},
      {"chaos-stall",
       {"--chaos-gap=2:3", "--chaos-kinds=stall", "--chaos-stall-ns=500"}},
      {"timeout", {"--timeout-per-trial=60000", "--debug-timeout-every=3"}},
  };
  for (const GoldenRun& run : runs) {
    const std::filesystem::path dir = "run_journal_golden_" + run.name;
    std::filesystem::remove_all(dir);
    const auto arguments = [&](const std::string& durability) {
      std::vector<std::string> all{"--shots=12", "--seed=7", durability};
      all.insert(all.end(), run.flags.begin(), run.flags.end());
      all.push_back((golden / "program.qasm").string());
      return all;
    };
    std::ostringstream out, err;
    ASSERT_EQ(run_tool(arguments("--checkpoint-dir=" + dir.string()), out, err),
              0)
        << run.name << ": " << err.str();
    const std::string expected = file_bytes(golden / (run.name + ".jsonl"));
    ASSERT_FALSE(expected.empty()) << run.name;
    EXPECT_EQ(file_bytes(dir / "shots.jsonl"), expected) << run.name;

    std::ostringstream resumed_out, resumed_err;
    ASSERT_EQ(run_tool(arguments("--resume=" + dir.string()), resumed_out,
                       resumed_err),
              0)
        << run.name << ": " << resumed_err.str();
    EXPECT_EQ(resumed_out.str(), out.str()) << run.name;
    EXPECT_EQ(file_bytes(dir / "shots.jsonl"), expected) << run.name;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace qpf::cli
