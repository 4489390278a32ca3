// Library behind the qpf_run command-line tool: option parsing and the
// execution drivers for the three supported program formats (QPDO
// QASM, CHP, and QISA).  Kept as a library so the logic is unit-
// testable; tools/qpf_run.cpp is a thin main().
#pragma once

#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "arch/classical_fault_layer.h"
#include "core/pauli_frame.h"

namespace qpf::cli {

enum class Backend { kChp, kQx };
enum class Format { kQasm, kChp, kQisa, kLogical };

struct RunnerOptions {
  Backend backend = Backend::kChp;
  Format format = Format::kQasm;
  bool pauli_frame = false;
  double error_rate = 0.0;
  std::size_t shots = 1;
  std::uint64_t seed = 1;
  bool print_state = false;
  std::string input_path;

  /// Patch slots for QISA programs (auto-grown to fit the program).
  std::size_t patch_slots = 1;

  /// Classical control-path fault injection (uniform rate for the
  /// drop / duplicate / reorder / readout-flip kinds).
  double classical_fault_rate = 0.0;
  /// Record-store protection for the Pauli frame layer.
  pf::Protection frame_protection = pf::Protection::kNone;
  /// Insert a ValidatingLayer above the Pauli frame layer.
  bool validate = false;

  /// Directory of the durable shot journal, shots.jsonl (qasm/chp
  /// programs).  Empty disables durability.
  std::string checkpoint_dir;
  /// Continue a journaled run from checkpoint_dir; completed shots are
  /// replayed from the journal, never re-executed.
  bool resume = false;
  /// Watchdog per shot in milliseconds (0 = off).  An over-budget shot
  /// is journaled with status "timed_out", excluded from the histogram
  /// (it is cut, not completed), and the run continues; the summary
  /// reports how many shots were cut.
  std::size_t timeout_per_trial_ms = 0;
  /// Test hook: treat every Nth shot (1-based) as over budget without
  /// waiting for wall-clock time (0 = off; requires
  /// timeout_per_trial_ms != 0).  Lets tests pin the timed-out-shot
  /// journal status deterministically.
  std::size_t debug_timeout_every = 0;

  /// Supervision subsystem (all off by default, and off means the
  /// per-shot stack — and every journal byte — is identical to a build
  /// without it).
  bool supervise = false;            ///< SupervisorLayer above the frame
  double deadline_slot_ns = 0.0;     ///< per-slot budget (TimingLayer)
  arch::ChaosConfig chaos{};         ///< scripted fault storms
  /// Cooperative stop flag (signal handler target).  When nonzero the
  /// run drains the in-flight shot, persists the journal tail, and
  /// reports an interrupted run (exit code 130 from run_tool).
  const volatile std::sig_atomic_t* stop = nullptr;
};

/// Parse argv-style options.  Returns std::nullopt and writes a usage
/// message to `error` on bad input.  Recognized flags:
///   --backend=chp|qx  --format=qasm|chp|qisa|logical  --pauli-frame
///   --error-rate=P    --shots=N   --seed=S    --print-state
///   --slots=N         --classical-fault-rate=P
///   --protect-frame[=parity|vote]  --validate
///   --checkpoint-dir=DIR  --resume=DIR
///   --timeout-per-trial=MS  --debug-timeout-every=N
///   --supervise  --deadline-ns=NS
///   --chaos-seed=S  --chaos-gap=MIN:MAX  --chaos-kinds=LIST
///   --chaos-stall-ns=NS  --chaos-burst=N   <input file or "-">
/// The format defaults from the file extension when not given.
[[nodiscard]] std::optional<RunnerOptions> parse_arguments(
    const std::vector<std::string>& arguments, std::string& error);

/// Run a program (text already loaded) and render a human-readable
/// report.  Throws qpf::Error (QasmParseError / StackConfigError /
/// QcuError) on malformed programs or configurations.  When
/// options.stop fires mid-run, `interrupted` (if non-null) is set and
/// the report covers the shots completed before the drain.
[[nodiscard]] std::string run_program(const RunnerOptions& options,
                                      const std::string& program_text,
                                      bool* interrupted = nullptr);

/// Full tool entry point: load the file (or stdin for "-"), run,
/// print to `out`; returns the process exit code (0 success, 2 for
/// unusable arguments or unparsable programs, 130 when the stop flag
/// interrupted the run after draining, 1 for everything else).
int run_tool(const std::vector<std::string>& arguments, std::ostream& out,
             std::ostream& err,
             const volatile std::sig_atomic_t* stop = nullptr);

/// Usage text.
[[nodiscard]] std::string usage();

}  // namespace qpf::cli
