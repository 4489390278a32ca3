#include "fuzz/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "circuit/error.h"
#include "exec/executor.h"
#include "fuzz/seeds.h"
#include "fuzz/shrinker.h"

namespace qpf::fuzz {

namespace {

/// Empty circuit handed to seed-only oracles.
const Circuit& empty_circuit() {
  static const Circuit kEmpty;
  return kEmpty;
}

bool oracle_enabled(const FuzzOptions& opt, const OracleSpec& spec) {
  if (!opt.oracles.empty()) {
    return std::find(opt.oracles.begin(), opt.oracles.end(),
                     std::string(spec.name)) != opt.oracles.end();
  }
  const std::string name = spec.name;
  if (!opt.with_qx &&
      (name == "semantics" || name == "mirror-qx" || name == "backend-diff")) {
    return false;
  }
  if (!opt.with_chaos && name == "chaos") {
    return false;
  }
  return true;
}

/// JSON string escaping (the report embeds QASM with newlines).
void append_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
              << "0123456789abcdef"[c & 0xf];
        } else {
          out << c;
        }
        break;
    }
  }
  out << '"';
}

/// Verdict of one oracle application, with the failure fully prepared
/// (shrunk, reproducer rendered) when it failed.  Building the failure
/// next to the oracle run keeps shrinking inside the worker — shrinking
/// is deterministic, so the committed report does not depend on jobs.
struct OracleRecord {
  const OracleSpec* spec = nullptr;
  /// Exclusive oracle: not run yet; the committing thread runs it.
  bool deferred = false;
  OracleOutcome outcome;
  std::optional<FuzzFailure> failure;
};

OracleRecord apply_oracle(const OracleSpec& spec, const FuzzCase& fc,
                          std::uint64_t case_seed, std::size_t case_index,
                          const FuzzOptions& options) {
  OracleRecord record;
  record.spec = &spec;
  const std::uint64_t oracle_seed =
      exec::task_seed(case_seed, label_hash(spec.name));
  const Circuit& consumed = circuit_for(fc, spec.kind);
  record.outcome = spec.run(consumed, oracle_seed);
  if (record.outcome.skipped || record.outcome.passed) {
    return record;
  }

  FuzzFailure failure;
  failure.oracle = spec.name;
  failure.case_index = case_index;
  failure.case_seed = case_seed;
  failure.detail = record.outcome.detail;
  failure.original_gates = consumed.num_operations();

  if (spec.kind != CircuitKind::kNone) {
    Circuit witness = consumed;
    if (options.shrink) {
      const auto still_fails = [&](const Circuit& candidate) {
        const OracleOutcome o = spec.run(candidate, oracle_seed);
        return !o.skipped && !o.passed;
      };
      const ShrinkResult shrunk =
          shrink_circuit(consumed, still_fails, options.max_shrink_evaluations);
      witness = shrunk.circuit;
      failure.shrink_evaluations = shrunk.evaluations;
    }
    failure.shrunk_gates = witness.num_operations();
    Reproducer rep;
    rep.oracle = spec.name;
    rep.case_seed = case_seed;
    rep.detail = record.outcome.detail;
    rep.circuit = witness;
    failure.reproducer = to_text(rep);
  }
  record.failure = std::move(failure);
  return record;
}

/// Everything one case's worker hands to the committing thread.  The
/// generated case rides along because deferred (exclusive) oracles run
/// at commit and still need their consumed circuit.
struct CaseRecord {
  std::uint64_t case_seed = 0;
  FuzzCase fc;
  std::vector<OracleRecord> records;
};

/// Fold one oracle record into the report in commit order.  Returns
/// false when the max_failures cutoff fired — the caller must stop
/// committing anything further, mid-case included.
bool commit_record(OracleRecord&& record, FuzzReport& report,
                   const FuzzOptions& options) {
  ++report.oracle_runs;
  if (record.outcome.skipped) {
    ++report.skips;
    return true;
  }
  if (record.outcome.passed) {
    ++report.passes;
    return true;
  }
  report.failures.push_back(std::move(*record.failure));
  return options.max_failures == 0 ||
         report.failures.size() < options.max_failures;
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  report.seed = options.seed;
  report.cases = options.cases;

  exec::Executor pool(std::min(exec::resolve_jobs(options.jobs),
                               std::max<std::size_t>(options.cases, 1)));
  exec::RunOptions run_options;
  run_options.seed = options.seed;

  const std::thread::id committer = std::this_thread::get_id();
  const auto task = [&options, &report,
                     committer](const exec::TaskContext& ctx) {
    exec::TaskResult<CaseRecord> result;
    CaseRecord& rec = result.value;
    const std::size_t index = ctx.index();
    rec.case_seed = exec::task_seed(options.seed, index);
    rec.fc = generate_case(rec.case_seed);
    // A one-worker pool runs this task on the committing thread, after
    // the previous case's commit: exclusive oracles may run here, and
    // the failures already committed count toward the cutoff.
    const bool on_committer = std::this_thread::get_id() == committer;
    std::size_t failures = on_committer ? report.failures.size() : 0;
    for (const OracleSpec& spec : all_oracles()) {
      if (!oracle_enabled(options, spec)) {
        continue;
      }
      if (spec.once_per_run && index != 0) {
        continue;
      }
      if (spec.exclusive && !on_committer) {
        // Process-global fault backends: only the committing thread
        // may run these, one at a time, in commit order.
        OracleRecord deferred;
        deferred.spec = &spec;
        deferred.deferred = true;
        rec.records.push_back(std::move(deferred));
        continue;
      }
      const OracleRecord& record = rec.records.emplace_back(
          apply_oracle(spec, rec.fc, rec.case_seed, index, options));
      if (record.failure && ++failures == options.max_failures) {
        // The commit's cutoff fires at or before this record, so no
        // later oracle of this case could be committed: stop here.
        break;
      }
    }
    return result;
  };

  const auto commit = [&options, &report](std::size_t index,
                                          CaseRecord&& rec) {
    for (OracleRecord& record : rec.records) {
      if (record.deferred) {
        record =
            apply_oracle(*record.spec, rec.fc, rec.case_seed, index, options);
      }
      if (!commit_record(std::move(record), report, options)) {
        return false;  // cutoff: discard every later record and case
      }
    }
    return true;
  };

  pool.run_ordered<CaseRecord>(options.cases, run_options, task, commit);
  return report;
}

const Circuit& circuit_for(const FuzzCase& fc, CircuitKind kind) {
  switch (kind) {
    case CircuitKind::kUnitary:
      return fc.unitary;
    case CircuitKind::kUnitaryT:
      return fc.unitary_t;
    case CircuitKind::kMeasured:
      return fc.measured;
    case CircuitKind::kStream:
      return fc.stream;
    case CircuitKind::kNone:
      break;
  }
  return empty_circuit();
}

std::string to_json(const FuzzReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"" << kTriageSchema << "\",\n";
  out << "  \"seed\": " << report.seed << ",\n";
  out << "  \"cases\": " << report.cases << ",\n";
  out << "  \"oracle_runs\": " << report.oracle_runs << ",\n";
  out << "  \"passes\": " << report.passes << ",\n";
  out << "  \"skips\": " << report.skips << ",\n";
  out << "  \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const FuzzFailure& f = report.failures[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"oracle\": ";
    append_json_string(out, f.oracle);
    out << ",\n";
    out << "      \"case_index\": " << f.case_index << ",\n";
    out << "      \"case_seed\": " << f.case_seed << ",\n";
    out << "      \"detail\": ";
    append_json_string(out, f.detail);
    out << ",\n";
    out << "      \"original_gates\": " << f.original_gates << ",\n";
    out << "      \"shrunk_gates\": " << f.shrunk_gates << ",\n";
    out << "      \"shrink_evaluations\": " << f.shrink_evaluations << ",\n";
    out << "      \"reproducer\": ";
    append_json_string(out, f.reproducer);
    out << "\n    }";
  }
  out << (report.failures.empty() ? "]" : "\n  ]") << ",\n";
  out << "  \"verdict\": \"" << (report.pass() ? "PASS" : "FAIL") << "\"\n";
  out << "}\n";
  return out.str();
}

OracleOutcome replay_reproducer(const Reproducer& reproducer) {
  const OracleSpec* spec = find_oracle(reproducer.oracle);
  if (spec == nullptr) {
    throw Error("replay: unknown oracle '" + reproducer.oracle + "'");
  }
  const std::uint64_t oracle_seed =
      exec::task_seed(reproducer.case_seed, label_hash(spec->name));
  return spec->run(reproducer.circuit, oracle_seed);
}

}  // namespace qpf::fuzz
