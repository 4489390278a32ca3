// Tests for the qpf_run command-line library (cli/runner.h), and for
// the numeric arguments of the other tool binaries.
#include "cli/runner.h"

#include "cli/numeric_args.h"
#include "journal/run_journal.h"

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

namespace qpf::cli {
namespace {

std::optional<RunnerOptions> parse(std::vector<std::string> arguments) {
  std::string error;
  return parse_arguments(arguments, error);
}

TEST(CliParseTest, DefaultsAndFile) {
  const auto options = parse({"program.qasm"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->backend, Backend::kChp);
  EXPECT_EQ(options->format, Format::kQasm);
  EXPECT_EQ(options->input_path, "program.qasm");
  EXPECT_EQ(options->shots, 1u);
  EXPECT_FALSE(options->pauli_frame);
}

TEST(CliParseTest, FormatFromExtension) {
  EXPECT_EQ(parse({"a.chp"})->format, Format::kChp);
  EXPECT_EQ(parse({"a.qisa"})->format, Format::kQisa);
  EXPECT_EQ(parse({"a.qasm"})->format, Format::kQasm);
  // Explicit flag wins over extension.
  EXPECT_EQ(parse({"--format=qisa", "a.qasm"})->format, Format::kQisa);
}

TEST(CliParseTest, AllFlags) {
  const auto options =
      parse({"--backend=qx", "--pauli-frame", "--error-rate=0.01",
             "--shots=50", "--seed=9", "--slots=3", "--print-state",
             "x.qasm"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->backend, Backend::kQx);
  EXPECT_TRUE(options->pauli_frame);
  EXPECT_DOUBLE_EQ(options->error_rate, 0.01);
  EXPECT_EQ(options->shots, 50u);
  EXPECT_EQ(options->seed, 9u);
  EXPECT_EQ(options->patch_slots, 3u);
  EXPECT_TRUE(options->print_state);
}

TEST(CliParseTest, Rejections) {
  EXPECT_FALSE(parse({}).has_value());                       // no input
  EXPECT_FALSE(parse({"--backend=foo", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--format=foo", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--error-rate=2.0", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--shots=0", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--bogus", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"a.qasm", "b.qasm"}).has_value());     // two inputs
  EXPECT_FALSE(parse({"--print-state", "a.qasm"}).has_value());  // needs qx
  // strtoull read "abc" as 0, wrapped "-1" and "-5" to 2^64 - 1 and
  // 2^64 - 5, and stopped "4x" at 4.
  EXPECT_FALSE(parse({"--seed=abc", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--seed=-1", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--shots=4x", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--slots=-5", "a.qasm"}).has_value());
}

TEST(CliRunTest, QasmDeterministicCircuit) {
  RunnerOptions options;
  options.format = Format::kQasm;
  options.input_path = "inline";
  const std::string report =
      run_program(options, "x q0\nmeasure q0\nmeasure q1\n");
  EXPECT_NE(report.find("|01>"), std::string::npos);
}

TEST(CliRunTest, QasmHistogramOverShots) {
  RunnerOptions options;
  options.shots = 40;
  options.input_path = "inline";
  const std::string report =
      run_program(options, "h q0\ncnot q0,q1\nmeasure q0\nmeasure q1\n");
  EXPECT_NE(report.find("histogram"), std::string::npos);
  // Bell pair: only correlated outcomes appear.
  EXPECT_EQ(report.find("|01>"), std::string::npos);
  EXPECT_EQ(report.find("|10>"), std::string::npos);
}

TEST(CliRunTest, PauliFrameAffectsRawDevice) {
  RunnerOptions options;
  options.pauli_frame = true;
  options.input_path = "inline";
  const std::string report = run_program(options, "x q0\nmeasure q0\n");
  EXPECT_NE(report.find("|1>"), std::string::npos);  // corrected readout
}

TEST(CliRunTest, ChpFormat) {
  RunnerOptions options;
  options.format = Format::kChp;
  options.input_path = "inline";
  const std::string report = run_program(options, "#\nh 0\nc 0 1\nm 0\nm 1\n");
  EXPECT_NE(report.find("state"), std::string::npos);
}

TEST(CliRunTest, QxBackendWithStateDump) {
  RunnerOptions options;
  options.backend = Backend::kQx;
  options.print_state = true;
  options.input_path = "inline";
  const std::string report = run_program(options, "h q0\n");
  EXPECT_NE(report.find("0.707107"), std::string::npos);
}

TEST(CliRunTest, QisaProgram) {
  RunnerOptions options;
  options.format = Format::kQisa;
  options.input_path = "inline";
  const std::string report = run_program(
      options, "map p0 s0\nx v2\nx v4\nx v6\nqec\nlmeas p0\nhalt\n");
  EXPECT_NE(report.find("logical states"), std::string::npos);
  EXPECT_NE(report.find("  1  1"), std::string::npos);
}

TEST(CliRunTest, LogicalFormatCompilesAndRunsFaultTolerantly) {
  RunnerOptions options;
  options.format = Format::kLogical;
  options.error_rate = 5e-4;
  options.pauli_frame = true;
  options.shots = 5;
  options.input_path = "inline";
  const std::string report = run_program(
      options,
      "prep_z q0\nprep_z q1\n|\nx q0\n|\ncnot q0,q1\n|\nmeasure "
      "q0\nmeasure q1\n");
  EXPECT_NE(report.find("compiled logical program"), std::string::npos);
  EXPECT_NE(report.find("QEC windows"), std::string::npos);
  EXPECT_NE(report.find("  11  "), std::string::npos);
}

TEST(CliParseTest, LogicalFormatFromExtensionAndFlag) {
  EXPECT_EQ(parse({"a.lqasm"})->format, Format::kLogical);
  EXPECT_EQ(parse({"--format=logical", "a.qasm"})->format, Format::kLogical);
}

TEST(CliRunTest, MalformedProgramThrows) {
  RunnerOptions options;
  options.input_path = "inline";
  EXPECT_THROW((void)run_program(options, "frobnicate q0\n"),
               std::runtime_error);
}

TEST(CliParseTest, RobustnessFlags) {
  const auto options =
      parse({"--pauli-frame", "--classical-fault-rate=0.05",
             "--protect-frame=vote", "--validate", "a.qasm"});
  ASSERT_TRUE(options.has_value());
  EXPECT_DOUBLE_EQ(options->classical_fault_rate, 0.05);
  EXPECT_EQ(options->frame_protection, pf::Protection::kVote);
  EXPECT_TRUE(options->validate);
  // Bare --protect-frame defaults to parity.
  EXPECT_EQ(parse({"--pauli-frame", "--protect-frame", "a.qasm"})
                ->frame_protection,
            pf::Protection::kParity);
}

TEST(CliParseTest, RobustnessFlagRejections) {
  // Rates outside [0,1] or unparsable.
  EXPECT_FALSE(parse({"--classical-fault-rate=1.5", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--classical-fault-rate=-0.1", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--classical-fault-rate=lots", "a.qasm"}).has_value());
  // Unknown protection scheme.
  EXPECT_FALSE(
      parse({"--pauli-frame", "--protect-frame=ecc", "a.qasm"}).has_value());
  // Both frame-hardening flags need the frame itself.
  EXPECT_FALSE(parse({"--protect-frame", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--validate", "a.qasm"}).has_value());
  // The QCU's shot loop builds neither the frame's protection nor the
  // validator, so QISA and logical programs refuse both, with exit 2.
  EXPECT_TRUE(parse({"--pauli-frame", "a.qisa"}).has_value());
  EXPECT_FALSE(
      parse({"--pauli-frame", "--protect-frame=vote", "a.qisa"}).has_value());
  EXPECT_FALSE(parse({"--pauli-frame", "--protect-frame", "a.lqasm"})
                   .has_value());
  EXPECT_FALSE(parse({"--pauli-frame", "--validate", "a.qisa"}).has_value());
  EXPECT_FALSE(parse({"--pauli-frame", "--validate", "a.lqasm"}).has_value());
  std::ostringstream out, err;
  EXPECT_EQ(run_tool({"--pauli-frame", "--validate", "a.lqasm"}, out, err), 2);
  EXPECT_NE(err.str().find("--protect-frame / --validate support qasm/chp"),
            std::string::npos)
      << err.str();
}

TEST(CliRunTest, ClassicalFaultsReportedInOutput) {
  RunnerOptions options;
  options.shots = 20;
  options.classical_fault_rate = 0.2;
  options.pauli_frame = true;
  options.frame_protection = pf::Protection::kVote;
  options.validate = true;
  options.input_path = "inline";
  const std::string report =
      run_program(options, "x q0\nmeasure q0\nmeasure q1\n");
  EXPECT_NE(report.find("classical faults injected"), std::string::npos);
  EXPECT_NE(report.find("frame health (vote)"), std::string::npos);
  EXPECT_NE(report.find("validator:"), std::string::npos);
}

TEST(CliRunTest, ZeroFaultRunReportsCleanValidator) {
  RunnerOptions options;
  options.pauli_frame = true;
  options.validate = true;
  options.input_path = "inline";
  const std::string report = run_program(options, "x q0\nmeasure q0\n");
  EXPECT_NE(report.find("validator: 0 report(s)"), std::string::npos);
  EXPECT_NE(report.find("|1>"), std::string::npos);
}

TEST(CliRunTest, QisaPathInjectsClassicalFaults) {
  RunnerOptions options;
  options.format = Format::kQisa;
  options.classical_fault_rate = 0.05;
  options.shots = 5;
  options.input_path = "inline";
  const std::string report = run_program(
      options, "map p0 s0\nx v2\nqec\nlmeas p0\nhalt\n");
  EXPECT_NE(report.find("classical faults injected"), std::string::npos);
}

TEST(CliToolTest, ExitCodesAndOneLineDiagnostics) {
  std::ostringstream out, err;
  // Unknown flag: usage error, exit 2.
  EXPECT_EQ(run_tool({"--bogus", "a.qasm"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown option"), std::string::npos);
  // Missing file: exit 1 with a one-line diagnostic.
  out.str({});
  err.str({});
  EXPECT_EQ(run_tool({"/nonexistent/prog.qasm"}, out, err), 1);
  const std::string diagnostic = err.str();
  EXPECT_NE(diagnostic.find("cannot open"), std::string::npos);
  EXPECT_EQ(std::count(diagnostic.begin(), diagnostic.end(), '\n'), 1);
}

TEST(CliToolTest, UnparsableProgramExitsTwoWithLineInfo) {
  std::ostringstream out, err;
  const char* path = "cli_tool_bad_program.qasm";
  {
    std::ofstream file(path);
    file << "h q0\nfrobnicate q1\n";
  }
  EXPECT_EQ(run_tool({path}, out, err), 2);
  const std::string diagnostic = err.str();
  EXPECT_NE(diagnostic.find("line 2"), std::string::npos);
  EXPECT_EQ(std::count(diagnostic.begin(), diagnostic.end(), '\n'), 1);
  std::remove(path);
}

TEST(CliToolTest, SuccessfulRunExitsZero) {
  std::ostringstream out, err;
  const char* path = "cli_tool_good_program.qasm";
  {
    std::ofstream file(path);
    file << "qubits 2\nx q0\nmeasure q0\nmeasure q1\n";
  }
  EXPECT_EQ(run_tool({path}, out, err), 0);
  EXPECT_NE(out.str().find("|01>"), std::string::npos);
  EXPECT_TRUE(err.str().empty());
  std::remove(path);
}

TEST(CliToolTest, LostQcuReadoutIsATypedError) {
  // With both rates, a duplicated operation's extra slot draws idle
  // noise on an ancilla measured one slot earlier; the QCU then reads
  // no value for it and stops the run with a QcuError naming the qubit.
  std::ostringstream out, err;
  EXPECT_EQ(run_tool({"--shots=10", "--seed=1", "--error-rate=0.01",
                      "--classical-fault-rate=0.05",
                      QPF_TEST_GOLDEN_DIR "/programs/bell.lqasm"},
                     out, err),
            1);
  EXPECT_EQ(err.str(),
            "qpf_run: QuantumControlUnit: readout of qubit 26 was lost: the "
            "core holds no measured value for it\n");
}

/// Run a built tool binary with `arguments` (stdout discarded); returns
/// its exit code, 128 + the signal when one killed it, and its stderr.
int run_binary(const std::string& binary, const std::string& arguments,
               std::string& err) {
  // One file per test: ctest runs the cases of this suite in parallel.
  const std::string err_path =
      std::string("cli_tool_stderr_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  const int status = std::system(
      (binary + " " + arguments + " > /dev/null 2> " + err_path).c_str());
  std::ifstream in(err_path);
  err.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  std::remove(err_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// Both LER tools reject `option` with exit 2 and the usage text.
void expect_usage_error(const std::string& option) {
  const std::string ler = QPF_LER_TOOL;
  const std::string chaos = QPF_CHAOS_TOOL;
  for (const std::string& tool :
       {ler + " --max-windows=10 --runs=1",
        chaos + " --scenario=baseline --max-windows=10"}) {
    std::string err;
    EXPECT_EQ(run_binary(tool, option, err), 2) << tool << " " << option;
    EXPECT_NE(err.find("usage:"), std::string::npos) << tool << " " << option;
  }
}

TEST(CliToolTest, LerToolsRejectANegativeCount) {
  // std::stoull wrapped "-1" to 2^64 - 1, and the seed vector of that
  // many trials aborted with std::length_error.
  expect_usage_error("--runs=-1");
}

TEST(CliToolTest, LerToolsRejectANanRate) {
  // NaN passed `p < 0 || p > 1` and ran a noise-free campaign.
  expect_usage_error("--per=nan");
}

TEST(CliToolTest, LerToolsRejectTrailingText) {
  // std::stod read "1e-3junk" as 1e-3.
  expect_usage_error("--per=1e-3junk");
}

/// One more thread than any count flag may ask for.  Every tool must
/// refuse it while parsing, so these tests start no thread.
const std::string kTooManyThreads = std::to_string(kMaxThreads + 1);

TEST(CliToolTest, LerToolsRejectAJobCountAboveTheBound) {
  expect_usage_error("--jobs=" + kTooManyThreads);
}

TEST(CliToolTest, LerToolRunsAnOddDistance) {
  std::string err;
  EXPECT_EQ(run_binary(QPF_LER_TOOL, "--max-windows=10 --runs=1 --distance=5",
                       err),
            0)
      << err;
}

/// qpf_ler alone rejects `option` with exit 2 and the usage text.
void expect_ler_usage_error(const std::string& option) {
  std::string err;
  EXPECT_EQ(run_binary(QPF_LER_TOOL, "--max-windows=10 --runs=1 " + option,
                       err),
            2)
      << option;
  EXPECT_NE(err.find("usage:"), std::string::npos) << option;
}

TEST(CliToolTest, LerToolRejectsAnEvenDistance) {
  expect_ler_usage_error("--distance=4");
}

TEST(CliToolTest, LerToolRejectsADistanceAboveTheLargest) {
  expect_ler_usage_error("--distance=9");
}

TEST(CliToolTest, LerToolRejectsTrailingTextInTheDistance) {
  expect_ler_usage_error("--distance=5x");
}

TEST(CliToolTest, LerToolReportsCappedTrials) {
  // Every trial stops at 50 windows with none of its 10 errors: the
  // statistics line stays as it was, and stderr says the LER is capped.
  std::string err;
  EXPECT_EQ(run_binary(QPF_LER_TOOL,
                       "--per=3e-4 --runs=3 --errors=10 --max-windows=50",
                       err),
            0)
      << err;
  EXPECT_NE(err.find("qpf_ler: 3 of 3 trial(s) stopped at the window cap"),
            std::string::npos)
      << err;
}

TEST(CliToolTest, FuzzToolRejectsAHexSeed) {
  // std::stoull read "0x10" as seed 0 and the run exited 0.
  std::string err;
  EXPECT_EQ(run_binary(QPF_FUZZ_TOOL, "--seed=0x10 --cases=0", err), 2);
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(CliToolTest, ServeToolsRejectAPortAbove16Bits) {
  // The port was cast to 16 bits: 70000 listened on 4464.  `timeout`
  // bounds a server that accepted it.
  for (const std::string tool : {QPF_SERVE_TOOL, QPF_SERVE_LOAD_TOOL}) {
    std::string err;
    EXPECT_EQ(run_binary("timeout 20 " + tool, "--port=70000", err), 2)
        << tool;
    EXPECT_NE(err.find("usage:"), std::string::npos) << tool << err;
  }
}

TEST(CliToolTest, RetiredToolFlagsAreUnknownOptions) {
  // qpf_serve_load has one session driver and qpf_fuzz fixed oracle
  // settings: the flags that chose otherwise are gone.  `timeout`
  // bounds a tool that accepted one.
  const std::string load = std::string("timeout 20 ") + QPF_SERVE_LOAD_TOOL;
  const std::string fuzz = std::string("timeout 20 ") + QPF_FUZZ_TOOL;
  for (const std::string& command :
       {load + " --port=1 --retry", load + " --port=1 --hold-ms=10",
        fuzz + " --cases=0 --shots=16", fuzz + " --cases=0 --minimize"}) {
    std::string err;
    EXPECT_EQ(run_binary(command, "", err), 2) << command;
    EXPECT_NE(err.find("unknown argument"), std::string::npos)
        << command << err;
  }
}

TEST(CliToolTest, FuzzToolRejectsAJobCountAboveTheBound) {
  std::string err;
  EXPECT_EQ(run_binary(QPF_FUZZ_TOOL, "--cases=0 --jobs=" + kTooManyThreads,
                       err),
            2);
  EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

TEST(CliToolTest, ServeToolsRejectAThreadCountAboveTheBound) {
  // qpf_serve's executor threads and qpf_serve_load's sessions (one
  // thread each).  `timeout` bounds a tool that accepted the count.
  const std::string serve = QPF_SERVE_TOOL;
  const std::string load = QPF_SERVE_LOAD_TOOL;
  for (const std::string& command :
       {serve + " --threads=" + kTooManyThreads,
        load + " --port=1 --sessions=" + kTooManyThreads}) {
    std::string err;
    EXPECT_EQ(run_binary("timeout 20 " + command, "", err), 2) << command;
    EXPECT_NE(err.find("usage:"), std::string::npos) << command << err;
  }
}

TEST(CliToolTest, BenchRejectsAJobCountAboveTheBound) {
  std::string err;
  EXPECT_EQ(run_binary(std::string("QPF_LER_RUNS=1 QPF_LER_ERRORS=1 ") +
                           QPF_BENCH_LER,
                       "--jobs=" + kTooManyThreads, err),
            2);
  EXPECT_NE(err.find("--jobs N"), std::string::npos) << err;
}

/// bench_ler rejects QPF_LER_RUNS=`value` with exit 2, naming the
/// variable.
void expect_bench_env_error(const std::string& value) {
  std::string err;
  EXPECT_EQ(run_binary("QPF_LER_RUNS=" + value + " " + QPF_BENCH_LER, "", err),
            2)
      << value;
  EXPECT_NE(err.find("QPF_LER_RUNS"), std::string::npos) << value;
}

TEST(CliToolTest, BenchRejectsANegativeRunCount) {
  // strtoull wrapped "-1" to 2^64 - 1: std::length_error, exit 134.
  expect_bench_env_error("-1");
}

TEST(CliToolTest, BenchRejectsATextRunCount) {
  // strtoull read "abc" as 0: a table of zero LERs and exit 0.
  expect_bench_env_error("abc");
}

TEST(CliToolTest, BenchRejectsAZeroRunCount) {
  expect_bench_env_error("0");
}

TEST(CliParseTest, NanRatesAreRejected) {
  EXPECT_FALSE(parse({"--error-rate=nan", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--classical-fault-rate=nan", "a.qasm"}).has_value());
  // std::stod stopped at the junk and ran at 1e-3.
  EXPECT_FALSE(parse({"--error-rate=1e-3junk", "a.qasm"}).has_value());
  // A NaN budget passed the `<= 0` test.
  EXPECT_FALSE(parse({"--deadline-ns=nan", "a.qasm"}).has_value());
}

TEST(CliParseTest, CheckpointFlags) {
  const auto options =
      parse({"--checkpoint-dir=state", "--timeout-per-trial=500", "a.qasm"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->checkpoint_dir, "state");
  EXPECT_EQ(options->timeout_per_trial_ms, 500u);
  EXPECT_FALSE(options->resume);

  const auto resumed = parse({"--resume=state", "a.qasm"});
  ASSERT_TRUE(resumed.has_value());
  EXPECT_TRUE(resumed->resume);
  EXPECT_EQ(resumed->checkpoint_dir, "state");  // --resume implies the dir

  // --resume plus a *matching* --checkpoint-dir is fine.
  EXPECT_TRUE(
      parse({"--checkpoint-dir=state", "--resume=state", "a.qasm"}).has_value());
}

TEST(CliParseTest, CheckpointFlagRejections) {
  EXPECT_FALSE(parse({"--checkpoint-dir=", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--resume=", "a.qasm"}).has_value());
  // Two different directories named.
  EXPECT_FALSE(
      parse({"--checkpoint-dir=a", "--resume=b", "x.qasm"}).has_value());
  EXPECT_FALSE(parse({"--timeout-per-trial=0", "a.qasm"}).has_value());
  // Checkpointing covers the shot-loop formats only.
  EXPECT_FALSE(parse({"--checkpoint-dir=s", "a.qisa"}).has_value());
  // --print-state dumps amplitudes per shot; incompatible by design.
  EXPECT_FALSE(parse({"--backend=qx", "--print-state", "--checkpoint-dir=s",
                      "a.qasm"})
                   .has_value());
  // The journal is qpf_run's only durable record: there is no checkpoint
  // to rotate.
  std::ostringstream out, err;
  EXPECT_EQ(run_tool({"--checkpoint-every=5", "a.qasm"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown option '--checkpoint-every=5'"),
            std::string::npos)
      << err.str();
}

class CliCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::ofstream file(program_);
    file << "h q0\ncnot q0,q1\nmeasure q0\nmeasure q1\n";
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::remove(program_.c_str());
  }

  [[nodiscard]] std::vector<std::string> args(
      std::initializer_list<std::string> extra) const {
    std::vector<std::string> all{"--shots=20", "--seed=5"};
    all.insert(all.end(), extra.begin(), extra.end());
    all.push_back(program_);
    return all;
  }

  std::string name_ = ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name();
  std::string dir_ = "cli_ckpt_" + name_;
  std::string program_ = "cli_ckpt_" + name_ + ".qasm";
};

TEST_F(CliCheckpointTest, JournaledRunMatchesPlainRunAndRefusesSilentOverwrite) {
  std::ostringstream ref_out, ref_err;
  ASSERT_EQ(run_tool(args({}), ref_out, ref_err), 0);

  std::ostringstream out1, err1;
  ASSERT_EQ(run_tool(args({"--checkpoint-dir=" + dir_}), out1, err1), 0);
  EXPECT_EQ(out1.str(), ref_out.str());  // durability never changes results

  // Re-running into a populated state directory without --resume would
  // silently double-count; it must be refused with a pointer to the fix.
  std::ostringstream out2, err2;
  EXPECT_EQ(run_tool(args({"--checkpoint-dir=" + dir_}), out2, err2), 1);
  EXPECT_NE(err2.str().find("--resume"), std::string::npos);

  // A finished run resumes into a pure journal replay: same report.
  std::ostringstream out3, err3;
  ASSERT_EQ(run_tool(args({"--resume=" + dir_}), out3, err3), 0);
  EXPECT_EQ(out3.str(), ref_out.str());
}

TEST_F(CliCheckpointTest, StopFlagDrainsJournalAndExits130) {
  std::ostringstream ref_out, ref_err;
  ASSERT_EQ(run_tool(args({}), ref_out, ref_err), 0);

  static volatile std::sig_atomic_t stop = 0;
  stop = 1;  // "SIGINT" already pending when the shot loop starts
  std::ostringstream out1, err1;
  EXPECT_EQ(run_tool(args({"--checkpoint-dir=" + dir_}), out1, err1, &stop),
            130);
  EXPECT_NE(err1.str().find("interrupted"), std::string::npos);
  EXPECT_NE(out1.str().find("interrupted after 0 of 20"), std::string::npos);

  // Resume finishes the remaining shots; the final report is identical
  // to the never-interrupted reference.
  std::ostringstream out2, err2;
  ASSERT_EQ(run_tool(args({"--resume=" + dir_}), out2, err2), 0);
  EXPECT_EQ(out2.str(), ref_out.str());
}

TEST_F(CliCheckpointTest, ResumeRefusesAJournalOfADifferentSubsystemSet) {
  // Each subsystem adds config fields only when it is on, so a journal
  // written with it and a run without it differ by a key that only one
  // of the two config lines has.  Both directions are refused, naming
  // the field, before a single shot is mixed in.
  const struct {
    std::vector<std::string> flags;
    std::string field;
  } cases[] = {
      {{"--supervise"}, "supervise"},
      {{"--chaos-gap=2:3", "--chaos-kinds=stall"}, "chaos_"},
      {{"--deadline-ns=100"}, "deadline_slot_ns"},
  };
  for (const auto& subsystem : cases) {
    for (const bool written_with_flag : {true, false}) {
      std::filesystem::remove_all(dir_);
      std::vector<std::string> first = args({"--checkpoint-dir=" + dir_});
      std::vector<std::string> resumed = args({"--resume=" + dir_});
      std::vector<std::string>& with_flag =
          written_with_flag ? first : resumed;
      with_flag.insert(with_flag.begin(), subsystem.flags.begin(),
                       subsystem.flags.end());
      std::ostringstream out1, err1;
      ASSERT_EQ(run_tool(first, out1, err1), 0) << err1.str();
      std::ostringstream out2, err2;
      EXPECT_EQ(run_tool(resumed, out2, err2), 1)
          << subsystem.field << " written_with_flag=" << written_with_flag;
      EXPECT_NE(err2.str().find("written by a different run (field '" +
                                subsystem.field),
                std::string::npos)
          << err2.str();
    }
  }
}

TEST_F(CliCheckpointTest, ResumeRefusesADifferentChaosStallOrBurstLength) {
  // The config line carries every field of the chaos schedule, so a
  // resume that changes the stall debt or the burst length (set but
  // unused by a stall-only schedule) is refused, naming the field.
  const struct {
    std::string written;
    std::string resumed;
    std::string field;
  } cases[] = {
      {"--chaos-stall-ns=50", "--chaos-stall-ns=5000", "chaos_stall_ns"},
      {"--chaos-burst=2", "--chaos-burst=4", "chaos_burst_len"},
  };
  for (const auto& change : cases) {
    std::filesystem::remove_all(dir_);
    std::ostringstream out1, err1;
    ASSERT_EQ(run_tool(args({"--chaos-gap=2:3", "--chaos-kinds=stall",
                             change.written, "--checkpoint-dir=" + dir_}),
                       out1, err1),
              0)
        << err1.str();
    std::ostringstream out2, err2;
    EXPECT_EQ(run_tool(args({"--chaos-gap=2:3", "--chaos-kinds=stall",
                             change.resumed, "--resume=" + dir_}),
                       out2, err2),
              1)
        << change.field;
    EXPECT_NE(err2.str().find("written by a different run (field '" +
                              change.field + "'"),
              std::string::npos)
        << err2.str();
  }
}

TEST_F(CliCheckpointTest, TimeoutWatchdogReportsCleanRun) {
  // A generous watchdog on a tiny program: nothing times out, and the
  // report says so explicitly (the operator sees the watchdog is armed).
  std::ostringstream out, err;
  ASSERT_EQ(run_tool(args({"--timeout-per-trial=60000"}), out, err), 0);
  EXPECT_NE(out.str().find("timed out: 0 shot(s)"), std::string::npos);
}

TEST(CliParseTest, SupervisionFlags) {
  const auto options =
      parse({"--supervise", "--deadline-ns=250", "--chaos-gap=10:20",
             "--chaos-seed=3", "--chaos-kinds=crash,stall",
             "--chaos-stall-ns=100", "--chaos-burst=5", "a.qasm"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->supervise);
  EXPECT_DOUBLE_EQ(options->deadline_slot_ns, 250.0);
  EXPECT_EQ(options->chaos.seed, 3u);
  EXPECT_EQ(options->chaos.min_gap, 10u);
  EXPECT_EQ(options->chaos.max_gap, 20u);
  EXPECT_EQ(options->chaos.crash_weight, 1u);
  EXPECT_EQ(options->chaos.stall_weight, 1u);
  EXPECT_EQ(options->chaos.burst_weight, 0u);
  EXPECT_DOUBLE_EQ(options->chaos.stall_ns, 100.0);
  EXPECT_EQ(options->chaos.burst_length, 5u);
  EXPECT_TRUE(options->chaos.any());
}

TEST(CliParseTest, SupervisionFlagRejections) {
  // Chaos tuning without a schedule is a silent no-op — refuse it.
  EXPECT_FALSE(parse({"--chaos-seed=3", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--chaos-kinds=crash", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--chaos-gap=0:5", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--chaos-gap=9:3", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--chaos-gap=5", "a.qasm"}).has_value());
  EXPECT_FALSE(
      parse({"--chaos-gap=2:4", "--chaos-kinds=frogs", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--deadline-ns=0", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--deadline-ns=-5", "a.qasm"}).has_value());
  EXPECT_FALSE(parse({"--debug-timeout-every=4", "a.qasm"}).has_value());
  // Supervision wraps the qasm/chp stack only.
  EXPECT_FALSE(parse({"--supervise", "a.qisa"}).has_value());
  EXPECT_FALSE(parse({"--chaos-gap=2:4", "a.lqasm"}).has_value());
  // So do the per-shot watchdog and the qx backend: the QCU's shot loop
  // reads neither.
  EXPECT_FALSE(parse({"--timeout-per-trial=1", "a.qisa"}).has_value());
  EXPECT_FALSE(parse({"--timeout-per-trial=1", "--debug-timeout-every=1",
                      "a.qisa"})
                   .has_value());
  EXPECT_FALSE(parse({"--timeout-per-trial=1", "a.lqasm"}).has_value());
  EXPECT_FALSE(parse({"--backend=qx", "a.qisa"}).has_value());
  EXPECT_FALSE(parse({"--backend=qx", "a.lqasm"}).has_value());
}

TEST_F(CliCheckpointTest, DebugTimeoutCutsShotsFromHistogramAndJournal) {
  // Every 4th of the 20 shots is treated as over budget: the journal
  // must record the 5 cut shots with the distinct status, the histogram
  // must exclude them, and the summary must report the cut count.
  std::ostringstream out, err;
  ASSERT_EQ(run_tool(args({"--timeout-per-trial=60000",
                           "--debug-timeout-every=4",
                           "--checkpoint-dir=" + dir_}),
                     out, err),
            0);
  EXPECT_NE(out.str().find("timed out: 5 shot(s) cut at the 60000 ms budget"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("histogram over 15 completed shot(s)"),
            std::string::npos)
      << out.str();

  std::size_t cut = 0;
  std::size_t completed = 0;
  for (const journal::JournalEntry& entry :
       journal::read_journal(dir_ + "/shots.jsonl")) {
    if (!entry.has("status")) {
      continue;  // the config header line
    }
    if (entry.get("status") == "timed_out") {
      ++cut;
      EXPECT_EQ(entry.get("timed_out"), "1");
    } else {
      EXPECT_EQ(entry.get("status"), "ok");
      ++completed;
    }
  }
  EXPECT_EQ(cut, 5u);
  EXPECT_EQ(completed, 15u);
}

std::vector<std::string> histogram_lines(const std::string& report) {
  std::vector<std::string> lines;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  |", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST_F(CliCheckpointTest, StallChaosUnderSupervisionKeepsTheHistogram) {
  // Stall events cost modeled time, not correctness: with the watchdog
  // armed the deadline line reports overruns, but the measured
  // statistics must be identical to the undisturbed run.
  std::ostringstream ref_out, ref_err;
  ASSERT_EQ(run_tool(args({}), ref_out, ref_err), 0);

  std::ostringstream out, err;
  ASSERT_EQ(run_tool(args({"--supervise", "--chaos-gap=2:2",
                           "--chaos-kinds=stall", "--chaos-stall-ns=5000",
                           "--deadline-ns=100"}),
                     out, err),
            0);
  EXPECT_EQ(histogram_lines(out.str()), histogram_lines(ref_out.str()));
  EXPECT_NE(out.str().find("stall(s)"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find(" 0 stall(s)"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("supervisor: 0 fault(s) recovered"),
            std::string::npos)
      << out.str();
  // Measurement slots (300 ns) blow the 100 ns slot budget every shot.
  EXPECT_NE(out.str().find("deadline:"), std::string::npos);
  EXPECT_EQ(out.str().find("deadline: 0 overrun(s)"), std::string::npos)
      << out.str();
}

TEST_F(CliCheckpointTest, UnsupervisedChaosCrashFailsWithATypedError) {
  std::ostringstream out, err;
  EXPECT_EQ(run_tool(args({"--chaos-gap=2:2"}), out, err), 1);
  EXPECT_NE(err.str().find("classical-fault-layer"), std::string::npos)
      << err.str();
}

}  // namespace
}  // namespace qpf::cli
