#include "cli/runner.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "arch/chp_core.h"
#include "arch/classical_fault_layer.h"
#include "arch/error_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/qx_core.h"
#include "arch/supervisor_layer.h"
#include "arch/timing_layer.h"
#include "arch/validating_layer.h"
#include "circuit/error.h"
#include "circuit/qasm.h"
#include "cli/numeric_args.h"
#include "journal/run_journal.h"
#include "journal/snapshot.h"
#include "qcu/compiler.h"
#include "qcu/qcu.h"
#include "stabilizer/chp_format.h"

namespace qpf::cli {

namespace {

std::optional<Format> format_from_extension(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return std::nullopt;
  }
  const std::string extension = path.substr(dot + 1);
  if (extension == "qasm") {
    return Format::kQasm;
  }
  if (extension == "chp") {
    return Format::kChp;
  }
  if (extension == "qisa") {
    return Format::kQisa;
  }
  if (extension == "lqasm") {
    return Format::kLogical;
  }
  return std::nullopt;
}

// Accumulated robustness statistics across the shots of one run.
struct FaultSummary {
  arch::FaultTally injected;
  pf::FrameHealth health;
  std::size_t recovery_flushes = 0;
  std::size_t validator_reports = 0;
  // Supervision subsystem (zero unless the layers are built).
  std::size_t faults_recovered = 0;
  std::size_t fault_episodes = 0;
  std::size_t deadline_overruns = 0;
  std::size_t chaos_crashes = 0;
  std::size_t chaos_stalls = 0;
  std::size_t chaos_bursts = 0;

  void merge(const FaultSummary& delta) {
    injected.dropped += delta.injected.dropped;
    injected.duplicated += delta.injected.duplicated;
    injected.reordered += delta.injected.reordered;
    injected.readout_flips += delta.injected.readout_flips;
    health.checks += delta.health.checks;
    health.detected += delta.health.detected;
    health.corrected += delta.health.corrected;
    health.uncorrectable += delta.health.uncorrectable;
    health.recovery_resets += delta.health.recovery_resets;
    health.scrubs += delta.health.scrubs;
    recovery_flushes += delta.recovery_flushes;
    validator_reports += delta.validator_reports;
    faults_recovered += delta.faults_recovered;
    fault_episodes += delta.fault_episodes;
    deadline_overruns += delta.deadline_overruns;
    chaos_crashes += delta.chaos_crashes;
    chaos_stalls += delta.chaos_stalls;
    chaos_bursts += delta.chaos_bursts;
  }
};

void accumulate(FaultSummary& summary, const arch::ClassicalFaultLayer* faults,
                const arch::PauliFrameLayer* frame,
                const arch::ValidatingLayer* validator,
                const arch::SupervisorLayer* supervisor,
                const arch::TimingLayer* timing) {
  if (faults != nullptr) {
    summary.injected.dropped += faults->tally().dropped;
    summary.injected.duplicated += faults->tally().duplicated;
    summary.injected.reordered += faults->tally().reordered;
    summary.injected.readout_flips += faults->tally().readout_flips;
    summary.chaos_crashes += faults->chaos_tally().crashes;
    summary.chaos_stalls += faults->chaos_tally().stalls;
    summary.chaos_bursts += faults->chaos_tally().bursts;
  }
  if (frame != nullptr) {
    const pf::FrameHealth& health = frame->frame().health();
    summary.health.checks += health.checks;
    summary.health.detected += health.detected;
    summary.health.corrected += health.corrected;
    summary.health.uncorrectable += health.uncorrectable;
    summary.health.recovery_resets += health.recovery_resets;
    summary.health.scrubs += health.scrubs;
    summary.recovery_flushes += frame->recovery_flushes();
  }
  if (validator != nullptr) {
    summary.validator_reports += validator->reports().size();
  }
  if (supervisor != nullptr) {
    summary.faults_recovered += supervisor->stats().recoveries;
    summary.fault_episodes += supervisor->stats().episodes;
  }
  if (timing != nullptr) {
    summary.deadline_overruns += timing->total_overruns();
  }
}

// Assemble the layered stack and run one shot of a physical circuit,
// returning the final binary state string (q_{n-1} ... q_0).
std::string run_circuit_shot(const RunnerOptions& options,
                             const Circuit& circuit, std::uint64_t seed,
                             std::string* state_dump, FaultSummary* summary) {
  std::unique_ptr<arch::Core> core;
  arch::QxCore* qx = nullptr;
  if (options.backend == Backend::kQx) {
    auto owned = std::make_unique<arch::QxCore>(seed);
    qx = owned.get();
    core = std::move(owned);
  } else {
    core = std::make_unique<arch::ChpCore>(seed);
  }
  std::unique_ptr<arch::ErrorLayer> error;
  std::unique_ptr<arch::ClassicalFaultLayer> faults;
  std::unique_ptr<arch::PauliFrameLayer> frame;
  std::unique_ptr<arch::ValidatingLayer> validator;
  std::unique_ptr<arch::SupervisorLayer> supervisor;
  std::unique_ptr<arch::TimingLayer> timing;
  arch::Core* top = core.get();
  if (options.error_rate > 0.0) {
    error = std::make_unique<arch::ErrorLayer>(top, options.error_rate,
                                               seed ^ 0x517ULL);
    top = error.get();
  }
  if (options.classical_fault_rate > 0.0 || options.chaos.any()) {
    // Each shot gets its own deterministic chaos schedule: the storm
    // should not strike every shot at the same call index.
    arch::ChaosConfig chaos = options.chaos;
    chaos.seed ^= seed;
    faults = std::make_unique<arch::ClassicalFaultLayer>(
        top, arch::ClassicalFaultRates::uniform(options.classical_fault_rate),
        seed ^ 0xfa017ULL, chaos);
    top = faults.get();
  }
  if (options.pauli_frame) {
    frame = std::make_unique<arch::PauliFrameLayer>(top,
                                                    options.frame_protection);
    top = frame.get();
  }
  if (options.validate) {
    validator = std::make_unique<arch::ValidatingLayer>(top, frame.get());
    top = validator.get();
  }
  if (options.supervise) {
    arch::SupervisorOptions policy;
    policy.seed = seed ^ 0xa24baed4963ee407ULL;
    supervisor = std::make_unique<arch::SupervisorLayer>(top, policy);
    supervisor->set_frame(frame.get());
    top = supervisor.get();
  }
  if (options.deadline_slot_ns > 0.0) {
    timing = std::make_unique<arch::TimingLayer>(top);
    timing->set_deadline(
        arch::DeadlineBudget{options.deadline_slot_ns, 0.0});
    timing->set_stall_source(faults.get());
    if (supervisor) {
      supervisor->set_watchdog(timing.get());
    }
    top = timing.get();
  }
  const std::size_t qubits = std::max<std::size_t>(
      circuit.min_register_size(), 1);
  top->create_qubits(qubits);
  top->add(circuit);
  top->execute();
  const arch::BinaryState state = top->get_state();
  std::string bits;
  for (std::size_t q = state.size(); q-- > 0;) {
    bits += arch::to_char(state[q]);
  }
  if (state_dump != nullptr && qx != nullptr) {
    if (frame) {
      frame->flush();
    }
    *state_dump = qx->get_quantum_state()->str(1e-9);
  }
  if (summary != nullptr) {
    accumulate(*summary, faults.get(), frame.get(), validator.get(),
               supervisor.get(), timing.get());
  }
  return bits;
}

// Structural fingerprint of the program, so a resume against a
// different circuit is rejected instead of silently mixing histograms.
std::uint32_t circuit_fingerprint(const Circuit& circuit) {
  journal::SnapshotWriter out;
  out.write_circuit(circuit);
  return journal::crc32(out.bytes().data(), out.bytes().size());
}

journal::JournalEntry run_config_entry(const RunnerOptions& options,
                                       std::uint32_t program_crc) {
  journal::JournalEntry entry;
  entry.fields["kind"] = "config";
  entry.fields["program_crc"] = std::to_string(program_crc);
  entry.fields["seed"] = std::to_string(options.seed);
  entry.fields["shots"] = std::to_string(options.shots);
  char rate[40];
  std::snprintf(rate, sizeof rate, "%.17g", options.error_rate);
  entry.fields["error_rate"] = rate;
  std::snprintf(rate, sizeof rate, "%.17g", options.classical_fault_rate);
  entry.fields["classical_fault_rate"] = rate;
  entry.fields["backend"] = options.backend == Backend::kQx ? "qx" : "chp";
  entry.fields["pauli_frame"] = options.pauli_frame ? "1" : "0";
  entry.fields["protection"] = std::string(pf::name(options.frame_protection));
  entry.fields["validate"] = options.validate ? "1" : "0";
  // Supervision fields only when the subsystems are on, so a run with
  // them off produces journal bytes identical to a build without them.
  if (options.supervise) {
    entry.fields["supervise"] = "1";
  }
  if (options.deadline_slot_ns > 0.0) {
    std::snprintf(rate, sizeof rate, "%.17g", options.deadline_slot_ns);
    entry.fields["deadline_slot_ns"] = rate;
  }
  if (options.chaos.any()) {
    arch::write_chaos_fields(entry, options.chaos);
  }
  return entry;
}

// Aggregate run state.  A live shot and a shot a resume replays from
// the journal both join it through add_shot.
struct RunAggregate {
  std::map<std::string, std::size_t> histogram;
  FaultSummary summary;
  std::size_t timed_out_shots = 0;
  std::size_t shots_done = 0;

  void add_shot(const std::string& bits, bool timed_out,
                const FaultSummary& delta) {
    // A cut shot never joins the histogram: its bits are the state of
    // an over-budget shot, not a completed sample.
    if (timed_out) {
      ++timed_out_shots;
    } else {
      ++histogram[bits];
    }
    summary.merge(delta);
    ++shots_done;
  }
};

journal::JournalEntry shot_entry(const RunnerOptions& options,
                                 std::size_t shot, const std::string& bits,
                                 bool timed_out, const FaultSummary& delta) {
  journal::JournalEntry entry;
  entry.fields["kind"] = "shot";
  entry.fields["shot"] = std::to_string(shot);
  entry.fields["bits"] = bits;
  entry.fields["timed_out"] = timed_out ? "1" : "0";
  // The distinct watchdog status, only when the watchdog is armed (so
  // watchdog-off journals keep their exact historical bytes).
  if (options.timeout_per_trial_ms != 0) {
    entry.fields["status"] = timed_out ? "timed_out" : "ok";
  }
  entry.fields["dropped"] = std::to_string(delta.injected.dropped);
  entry.fields["duplicated"] = std::to_string(delta.injected.duplicated);
  entry.fields["reordered"] = std::to_string(delta.injected.reordered);
  entry.fields["readout_flips"] =
      std::to_string(delta.injected.readout_flips);
  entry.fields["checks"] = std::to_string(delta.health.checks);
  entry.fields["detected"] = std::to_string(delta.health.detected);
  entry.fields["corrected"] = std::to_string(delta.health.corrected);
  entry.fields["uncorrectable"] = std::to_string(delta.health.uncorrectable);
  entry.fields["recovery_resets"] =
      std::to_string(delta.health.recovery_resets);
  entry.fields["scrubs"] = std::to_string(delta.health.scrubs);
  entry.fields["recovery_flushes"] = std::to_string(delta.recovery_flushes);
  entry.fields["validator_reports"] =
      std::to_string(delta.validator_reports);
  if (options.supervise) {
    entry.fields["recovered"] = std::to_string(delta.faults_recovered);
    entry.fields["episodes"] = std::to_string(delta.fault_episodes);
  }
  if (options.deadline_slot_ns > 0.0) {
    entry.fields["overruns"] = std::to_string(delta.deadline_overruns);
  }
  if (options.chaos.any()) {
    entry.fields["chaos_crashes"] = std::to_string(delta.chaos_crashes);
    entry.fields["chaos_stalls"] = std::to_string(delta.chaos_stalls);
    entry.fields["chaos_bursts"] = std::to_string(delta.chaos_bursts);
  }
  return entry;
}

// The robustness counters of a journaled shot; a field shot_entry left
// out (its subsystem off) reads as 0.
FaultSummary shot_summary(const journal::JournalEntry& entry) {
  FaultSummary delta;
  delta.injected.dropped = entry.get_u64("dropped");
  delta.injected.duplicated = entry.get_u64("duplicated");
  delta.injected.reordered = entry.get_u64("reordered");
  delta.injected.readout_flips = entry.get_u64("readout_flips");
  delta.health.checks = entry.get_u64("checks");
  delta.health.detected = entry.get_u64("detected");
  delta.health.corrected = entry.get_u64("corrected");
  delta.health.uncorrectable = entry.get_u64("uncorrectable");
  delta.health.recovery_resets = entry.get_u64("recovery_resets");
  delta.health.scrubs = entry.get_u64("scrubs");
  delta.recovery_flushes = entry.get_u64("recovery_flushes");
  delta.validator_reports = entry.get_u64("validator_reports");
  delta.faults_recovered = entry.get_u64("recovered");
  delta.fault_episodes = entry.get_u64("episodes");
  delta.deadline_overruns = entry.get_u64("overruns");
  delta.chaos_crashes = entry.get_u64("chaos_crashes");
  delta.chaos_stalls = entry.get_u64("chaos_stalls");
  delta.chaos_bursts = entry.get_u64("chaos_bursts");
  return delta;
}

std::string run_circuit(const RunnerOptions& options, const Circuit& circuit,
                        bool* interrupted) {
  std::ostringstream out;
  out << "program: " << circuit.num_operations() << " operations in "
      << circuit.num_slots() << " time slots over "
      << circuit.min_register_size() << " qubits\n";
  RunAggregate aggregate;
  std::string state_dump;

  const bool durable = !options.checkpoint_dir.empty();
  std::unique_ptr<journal::RunJournal> log;
  if (durable) {
    journal::create_state_directory(options.checkpoint_dir);
    const std::string journal_path = options.checkpoint_dir + "/shots.jsonl";
    const journal::JournalEntry config =
        run_config_entry(options, circuit_fingerprint(circuit));
    const std::vector<journal::JournalEntry> entries =
        journal::read_journal(journal_path);
    if (!entries.empty()) {
      if (!options.resume) {
        throw CheckpointError(
            "state directory already holds a journal; pass --resume=DIR "
            "to continue it",
            journal_path);
      }
      if (const auto field =
              journal::config_difference(entries.front(), config)) {
        throw CheckpointError(
            "journal was written by a different run (field '" + *field +
                "' is '" + entries.front().get(*field) + "', expected '" +
                config.get(*field) + "')",
            journal_path);
      }
    }
    // Replay the sequential shot records; anything else (duplicates
    // from a re-run, out-of-order garbage) is ignored.
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const journal::JournalEntry& entry = entries[i];
      if (entry.get("kind") == "shot" &&
          entry.get_u64("shot") == aggregate.shots_done) {
        aggregate.add_shot(entry.get("bits"), entry.get_u64("timed_out") != 0,
                           shot_summary(entry));
      }
    }
    log = std::make_unique<journal::RunJournal>(journal_path);
    if (entries.empty()) {
      log->append(config);
    }
  }

  for (std::size_t shot = aggregate.shots_done; shot < options.shots;
       ++shot) {
    if (options.stop != nullptr && *options.stop != 0) {
      if (interrupted != nullptr) {
        *interrupted = true;
      }
      break;
    }
    const auto started = std::chrono::steady_clock::now();
    FaultSummary delta;
    const std::string bits = run_circuit_shot(
        options, circuit, options.seed + shot,
        options.print_state && shot + 1 == options.shots ? &state_dump
                                                         : nullptr,
        &delta);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    const bool timed_out =
        options.timeout_per_trial_ms != 0 &&
        (static_cast<std::size_t>(elapsed_ms) >=
             options.timeout_per_trial_ms ||
         (options.debug_timeout_every != 0 &&
          (shot + 1) % options.debug_timeout_every == 0));
    aggregate.add_shot(bits, timed_out, delta);
    if (durable) {
      log->append(shot_entry(options, shot, bits, timed_out, delta));
    }
  }

  const std::map<std::string, std::size_t>& histogram = aggregate.histogram;
  const FaultSummary& summary = aggregate.summary;
  if (interrupted != nullptr && *interrupted) {
    out << "interrupted after " << aggregate.shots_done << " of "
        << options.shots << " shot(s)";
    if (durable) {
      out << "; re-run with --resume=" << options.checkpoint_dir
          << " to continue";
    }
    out << "\n";
    return out.str();
  }
  if (options.shots == 1 && !histogram.empty()) {
    out << "state (q_{n-1}..q_0): |" << histogram.begin()->first << ">\n";
  } else {
    const std::size_t completed =
        aggregate.shots_done - aggregate.timed_out_shots;
    out << "histogram over " << completed << " completed shot(s):\n";
    for (const auto& [bits, count] : histogram) {
      out << "  |" << bits << ">  " << count << "\n";
    }
  }
  if (options.classical_fault_rate > 0.0) {
    out << "classical faults injected: " << summary.injected.dropped
        << " dropped, " << summary.injected.duplicated << " duplicated, "
        << summary.injected.reordered << " reordered, "
        << summary.injected.readout_flips << " readout flips\n";
  }
  if (options.pauli_frame &&
      options.frame_protection != pf::Protection::kNone) {
    out << "frame health (" << pf::name(options.frame_protection)
        << "): " << summary.health.checks << " checks, "
        << summary.health.detected << " detected, " << summary.health.corrected
        << " corrected, " << summary.health.uncorrectable
        << " uncorrectable, " << summary.recovery_flushes
        << " recovery flushes\n";
  }
  if (options.validate) {
    out << "validator: " << summary.validator_reports << " report(s)\n";
  }
  if (options.chaos.any()) {
    out << "chaos injected: " << summary.chaos_crashes << " crash(es), "
        << summary.chaos_stalls << " stall(s), " << summary.chaos_bursts
        << " burst(s)\n";
  }
  if (options.supervise) {
    out << "supervisor: " << summary.faults_recovered
        << " fault(s) recovered, " << summary.fault_episodes
        << " episode(s)\n";
  }
  if (options.deadline_slot_ns > 0.0) {
    out << "deadline: " << summary.deadline_overruns
        << " overrun(s) of the " << options.deadline_slot_ns
        << " ns slot budget\n";
  }
  if (options.timeout_per_trial_ms != 0) {
    out << "timed out: " << aggregate.timed_out_shots
        << " shot(s) cut at the " << options.timeout_per_trial_ms
        << " ms budget and excluded from the histogram\n";
  }
  if (!state_dump.empty()) {
    out << "quantum state (last shot, frame flushed):\n" << state_dump;
  }
  return out.str();
}

std::string run_qisa_program(const RunnerOptions& options,
                             const std::vector<qcu::Instruction>& program,
                             const char* kind, bool* interrupted) {
  // Size the machine to the largest patch the program names.
  std::size_t slots = options.patch_slots;
  for (const qcu::Instruction& instruction : program) {
    if (instruction.op == qcu::Opcode::kMapPatch) {
      slots = std::max<std::size_t>(slots, instruction.b + 1u);
    }
  }
  std::ostringstream out;
  out << kind << " program: " << program.size() << " instructions, " << slots
      << " patch slot(s)\n";
  std::map<std::string, std::size_t> histogram;
  arch::FaultTally injected;
  std::size_t shots_done = 0;
  for (std::size_t shot = 0; shot < options.shots; ++shot) {
    if (options.stop != nullptr && *options.stop != 0) {
      if (interrupted != nullptr) {
        *interrupted = true;
      }
      break;
    }
    arch::ChpCore core(options.seed + shot);
    std::unique_ptr<arch::ErrorLayer> error;
    std::unique_ptr<arch::ClassicalFaultLayer> faults;
    arch::Core* pel = &core;
    if (options.error_rate > 0.0) {
      error = std::make_unique<arch::ErrorLayer>(
          pel, options.error_rate, options.seed + shot + 0x9999);
      pel = error.get();
    }
    if (options.classical_fault_rate > 0.0) {
      // No drop faults below the QCU: a swallowed ESM / readout
      // measurement violates the decoder's input contract (a logic
      // error by design).  Duplicates, reorders, and readout flips are
      // the fault kinds the decode path absorbs like ordinary noise.
      const double p = options.classical_fault_rate;
      faults = std::make_unique<arch::ClassicalFaultLayer>(
          pel, arch::ClassicalFaultRates{0.0, p, p, p},
          options.seed + shot + 0xfa017);
      pel = faults.get();
    }
    qcu::QuantumControlUnit unit(pel, slots, options.pauli_frame);
    unit.load(program);
    unit.run();
    std::string key;
    for (qcu::PatchId patch = 0; patch < slots; ++patch) {
      if (unit.symbol_table().alive(patch)) {
        key += qec::to_char(unit.logical_state(patch));
      } else {
        key += '.';
      }
    }
    ++histogram[key];
    ++shots_done;
    if (faults != nullptr) {
      injected.dropped += faults->tally().dropped;
      injected.duplicated += faults->tally().duplicated;
      injected.reordered += faults->tally().reordered;
      injected.readout_flips += faults->tally().readout_flips;
    }
    if (shot + 1 == options.shots) {
      out << "stats: " << unit.stats().instructions << " instructions, "
          << unit.stats().operations_to_pel << " physical operations, "
          << unit.stats().paulis_absorbed << " Paulis absorbed, "
          << unit.stats().qec_windows << " QEC windows\n";
    }
  }
  if (interrupted != nullptr && *interrupted) {
    out << "interrupted after " << shots_done << " of " << options.shots
        << " shot(s)\n";
    return out.str();
  }
  out << "logical states over " << options.shots
      << " shot(s) (patch order, '.' = dead):\n";
  for (const auto& [key, count] : histogram) {
    out << "  " << key << "  " << count << "\n";
  }
  if (options.classical_fault_rate > 0.0) {
    out << "classical faults injected: " << injected.dropped << " dropped, "
        << injected.duplicated << " duplicated, " << injected.reordered
        << " reordered, " << injected.readout_flips << " readout flips\n";
  }
  return out.str();
}

}  // namespace

std::string usage() {
  return "usage: qpf_run [options] <program file | ->\n"
         "  --backend=chp|qx    simulation backend (default chp)\n"
         "  --format=qasm|chp|qisa|logical  program format (default: extension)\n"
         "  --pauli-frame       insert a Pauli frame layer / unit\n"
         "  --error-rate=P      symmetric depolarizing noise\n"
         "  --shots=N           repetitions (histogram output)\n"
         "  --seed=S            RNG seed (default 1)\n"
         "  --slots=N           QISA patch slots (default: from program)\n"
         "  --print-state       dump amplitudes (qx backend only)\n"
         "  --classical-fault-rate=P  drop/duplicate/reorder/readout-flip\n"
         "                      faults, each at rate P\n"
         "  --protect-frame[=parity|vote]  guard the Pauli frame records\n"
         "                      (default parity; requires --pauli-frame;\n"
         "                      qasm/chp programs only)\n"
         "  --validate          cross-check the Pauli frame against a\n"
         "                      shadow copy (requires --pauli-frame;\n"
         "                      qasm/chp programs only)\n"
         "  --checkpoint-dir=DIR  journal every shot durably (fsync'd\n"
         "                      JSONL, CRC per line); qasm/chp programs\n"
         "                      only\n"
         "  --resume=DIR        continue an interrupted journaled run;\n"
         "                      finished shots are replayed, not re-run\n"
         "  --timeout-per-trial=MS  per-shot watchdog; over-budget shots\n"
         "                      are journaled status=timed_out, cut from\n"
         "                      the histogram, and the run continues\n"
         "  --debug-timeout-every=N  test hook: treat every Nth shot as\n"
         "                      over budget (requires --timeout-per-trial)\n"
         "  --supervise         supervise the stack: catch typed faults,\n"
         "                      restore from the last good snapshot,\n"
         "                      degrade, escalate\n"
         "  --deadline-ns=NS    per-slot modeled-time budget; overruns\n"
         "                      are counted (and escalate under\n"
         "                      --supervise policy)\n"
         "  --chaos-gap=MIN:MAX scripted chaos schedule: seeded fault\n"
         "                      events every MIN..MAX layer calls\n"
         "  --chaos-seed=S      chaos schedule seed (default 0)\n"
         "  --chaos-kinds=LIST  comma list of crash,stall,burst\n"
         "                      (default crash)\n"
         "  --chaos-stall-ns=NS latency debt per stall event\n"
         "  --chaos-burst=N     crashes per burst event\n";
}

namespace {

/// parse_arguments without the catch: the numeric parsers of
/// cli/numeric_args.h throw std::invalid_argument on a malformed value.
std::optional<RunnerOptions> parse_flags(
    const std::vector<std::string>& arguments, std::string& error) {
  RunnerOptions options;
  bool format_given = false;
  bool chaos_tuning_given = false;
  for (const std::string& argument : arguments) {
    std::string value;
    if (argument == "--pauli-frame") {
      options.pauli_frame = true;
    } else if (argument == "--print-state") {
      options.print_state = true;
    } else if (consume_prefix(argument, "--backend=", value)) {
      if (value == "chp") {
        options.backend = Backend::kChp;
      } else if (value == "qx") {
        options.backend = Backend::kQx;
      } else {
        error = "unknown backend '" + value + "'";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--format=", value)) {
      format_given = true;
      if (value == "qasm") {
        options.format = Format::kQasm;
      } else if (value == "chp") {
        options.format = Format::kChp;
      } else if (value == "qisa") {
        options.format = Format::kQisa;
      } else if (value == "logical") {
        options.format = Format::kLogical;
      } else {
        error = "unknown format '" + value + "'";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--error-rate=", value)) {
      options.error_rate = parse_rate(value);
    } else if (consume_prefix(argument, "--shots=", value)) {
      options.shots = parse_count(value);
      if (options.shots == 0) {
        error = "shots must be positive";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--seed=", value)) {
      options.seed = parse_count(value);
    } else if (consume_prefix(argument, "--slots=", value)) {
      options.patch_slots = parse_count(value);
    } else if (consume_prefix(argument, "--classical-fault-rate=", value)) {
      options.classical_fault_rate = parse_rate(value);
    } else if (argument == "--protect-frame") {
      options.frame_protection = pf::Protection::kParity;
    } else if (consume_prefix(argument, "--protect-frame=", value)) {
      if (value == "parity") {
        options.frame_protection = pf::Protection::kParity;
      } else if (value == "vote") {
        options.frame_protection = pf::Protection::kVote;
      } else {
        error = "unknown frame protection '" + value + "'";
        return std::nullopt;
      }
    } else if (argument == "--validate") {
      options.validate = true;
    } else if (consume_prefix(argument, "--checkpoint-dir=", value)) {
      if (value.empty()) {
        error = "--checkpoint-dir needs a directory";
        return std::nullopt;
      }
      options.checkpoint_dir = value;
    } else if (consume_prefix(argument, "--resume=", value)) {
      if (value.empty()) {
        error = "--resume needs a directory";
        return std::nullopt;
      }
      if (!options.checkpoint_dir.empty() && options.checkpoint_dir != value) {
        error = "--resume and --checkpoint-dir name different directories";
        return std::nullopt;
      }
      options.checkpoint_dir = value;
      options.resume = true;
    } else if (consume_prefix(argument, "--timeout-per-trial=", value)) {
      options.timeout_per_trial_ms = parse_count(value);
      if (options.timeout_per_trial_ms == 0) {
        error = "--timeout-per-trial must be positive";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--debug-timeout-every=", value)) {
      options.debug_timeout_every = parse_count(value);
      if (options.debug_timeout_every == 0) {
        error = "--debug-timeout-every must be positive";
        return std::nullopt;
      }
    } else if (argument == "--supervise") {
      options.supervise = true;
    } else if (consume_prefix(argument, "--deadline-ns=", value)) {
      options.deadline_slot_ns = parse_real(value);
      if (options.deadline_slot_ns <= 0.0) {
        error = "--deadline-ns must be positive";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--chaos-seed=", value)) {
      options.chaos.seed = parse_count(value);
      chaos_tuning_given = true;
    } else if (consume_prefix(argument, "--chaos-gap=", value)) {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        error = "--chaos-gap needs MIN:MAX";
        return std::nullopt;
      }
      options.chaos.min_gap = parse_count(value.substr(0, colon));
      options.chaos.max_gap = parse_count(value.substr(colon + 1));
      if (options.chaos.min_gap == 0 ||
          options.chaos.min_gap > options.chaos.max_gap) {
        error = "--chaos-gap needs 0 < MIN <= MAX (got '" + value + "')";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--chaos-kinds=", value)) {
      chaos_tuning_given = true;
      options.chaos.crash_weight = 0;
      options.chaos.stall_weight = 0;
      options.chaos.burst_weight = 0;
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string kind =
            value.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (kind == "crash") {
          options.chaos.crash_weight = 1;
        } else if (kind == "stall") {
          options.chaos.stall_weight = 1;
        } else if (kind == "burst") {
          options.chaos.burst_weight = 1;
        } else {
          error = "unknown chaos kind '" + kind + "'";
          return std::nullopt;
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (consume_prefix(argument, "--chaos-stall-ns=", value)) {
      chaos_tuning_given = true;
      options.chaos.stall_ns = parse_real(value);
      if (options.chaos.stall_ns < 0.0) {
        error = "--chaos-stall-ns must be non-negative";
        return std::nullopt;
      }
    } else if (consume_prefix(argument, "--chaos-burst=", value)) {
      chaos_tuning_given = true;
      options.chaos.burst_length = parse_count(value);
      if (options.chaos.burst_length == 0) {
        error = "--chaos-burst must be positive";
        return std::nullopt;
      }
    } else if (!argument.empty() && argument[0] == '-' && argument != "-") {
      error = "unknown option '" + argument + "'";
      return std::nullopt;
    } else if (options.input_path.empty()) {
      options.input_path = argument;
    } else {
      error = "multiple input files";
      return std::nullopt;
    }
  }
  if (options.input_path.empty()) {
    error = "missing input file";
    return std::nullopt;
  }
  if (!format_given) {
    if (const auto format = format_from_extension(options.input_path)) {
      options.format = *format;
    }
  }
  if (options.print_state && options.backend != Backend::kQx) {
    error = "--print-state requires --backend=qx";
    return std::nullopt;
  }
  if (options.frame_protection != pf::Protection::kNone &&
      !options.pauli_frame) {
    error = "--protect-frame requires --pauli-frame";
    return std::nullopt;
  }
  if (options.validate && !options.pauli_frame) {
    error = "--validate requires --pauli-frame";
    return std::nullopt;
  }
  if (chaos_tuning_given && options.chaos.max_gap == 0) {
    error = "--chaos-* options need a schedule: pass --chaos-gap=MIN:MAX";
    return std::nullopt;
  }
  if (options.debug_timeout_every != 0 && options.timeout_per_trial_ms == 0) {
    error = "--debug-timeout-every requires --timeout-per-trial";
    return std::nullopt;
  }
  // The QCU runs QISA and logical programs on its own ChpCore stack,
  // which none of these flags reach.
  const bool qcu_program =
      options.format == Format::kQisa || options.format == Format::kLogical;
  if (qcu_program && (options.supervise || options.deadline_slot_ns > 0.0 ||
                      options.chaos.any())) {
    error = "--supervise / --deadline-ns / --chaos-* support qasm/chp "
            "programs only";
    return std::nullopt;
  }
  if (qcu_program && options.timeout_per_trial_ms != 0) {
    error = "--timeout-per-trial / --debug-timeout-every support qasm/chp "
            "programs only";
    return std::nullopt;
  }
  if (qcu_program && options.backend == Backend::kQx) {
    error = "--backend=qx supports qasm/chp programs only";
    return std::nullopt;
  }
  if (qcu_program && (options.frame_protection != pf::Protection::kNone ||
                      options.validate)) {
    error = "--protect-frame / --validate support qasm/chp programs only";
    return std::nullopt;
  }
  if (!options.checkpoint_dir.empty()) {
    if (qcu_program) {
      error = "checkpointing supports qasm/chp programs only";
      return std::nullopt;
    }
    if (options.print_state) {
      error = "--print-state cannot be combined with checkpointing";
      return std::nullopt;
    }
  }
  return options;
}

}  // namespace

std::optional<RunnerOptions> parse_arguments(
    const std::vector<std::string>& arguments, std::string& error) {
  try {
    return parse_flags(arguments, error);
  } catch (const std::invalid_argument& bad) {
    error = std::string("bad value: ") + bad.what();
    return std::nullopt;
  }
}

std::string run_program(const RunnerOptions& options,
                        const std::string& program_text, bool* interrupted) {
  switch (options.format) {
    case Format::kQasm:
      return run_circuit(options, from_qasm(program_text), interrupted);
    case Format::kChp:
      return run_circuit(options, stab::from_chp(program_text), interrupted);
    case Format::kQisa:
      return run_qisa_program(options, qcu::assemble(program_text), "qisa",
                              interrupted);
    case Format::kLogical:
      // A QASM file at the *logical* level: gates act on logical qubits,
      // the compiler lowers them to QISA, the QCU executes (Fig 4.1).
      return run_qisa_program(options, qcu::compile(from_qasm(program_text)),
                              "compiled logical", interrupted);
  }
  throw std::logic_error("unreachable");
}

int run_tool(const std::vector<std::string>& arguments, std::ostream& out,
             std::ostream& err, const volatile std::sig_atomic_t* stop) {
  std::string error;
  auto options = parse_arguments(arguments, error);
  if (!options.has_value()) {
    err << "qpf_run: " << error << "\n" << usage();
    return 2;
  }
  options->stop = stop;
  std::string text;
  if (options->input_path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(options->input_path);
    if (!file) {
      err << "qpf_run: cannot open '" << options->input_path << "'\n";
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  bool interrupted = false;
  try {
    out << run_program(*options, text, &interrupted);
  } catch (const QasmParseError& exception) {
    // Unparsable program text is an argument-level mistake like a bad
    // flag: same one-line diagnostic, same exit code.
    err << "qpf_run: " << exception.what() << "\n";
    return 2;
  } catch (const Error& exception) {
    err << "qpf_run: " << exception.what() << "\n";
    return 1;
  } catch (const std::exception& exception) {
    err << "qpf_run: " << exception.what() << "\n";
    return 1;
  }
  // With SIGPIPE ignored (tools/qpf_run.cpp), a reader that exited
  // early shows up as a failed stream here, after the journal tail is
  // already safe on disk — report it typed instead of dying mid-write.
  out.flush();
  if (!out) {
    const IoError io_error("stdout",
                           "write failed; output truncated (broken pipe?)");
    err << "qpf_run: " << io_error.what() << "\n";
    return 1;
  }
  if (interrupted) {
    // The in-flight shot was drained and the journal tail persisted;
    // 128+SIGINT mirrors shell convention for an interrupted process.
    err << "qpf_run: interrupted; partial results journaled\n";
    return 130;
  }
  return 0;
}

}  // namespace qpf::cli
