// ErrorLayer: injects depolarizing noise into every circuit passing
// through (thesis §4.2.3, §5.3.1): the symmetric channel, or with a
// dephasing bias the biased one (qec::DepolarizingModel).  Sits directly
// above the core so that everything physical — including Pauli
// corrections that were not absorbed by a Pauli frame, and idle slots —
// is noisy.
#pragma once

#include <cstdint>
#include <optional>

#include "arch/layer.h"
#include "qec/depolarizing.h"

namespace qpf::arch {

class ErrorLayer final : public Layer {
 public:
  ErrorLayer(Core* lower, double physical_error_rate, std::uint64_t seed,
             std::optional<double> bias = std::nullopt)
      : Layer(lower), model_(physical_error_rate, seed, bias) {}

  void add(const Circuit& circuit) override {
    if (bypass_) {
      lower().add(circuit);
    } else {
      // A circuit no draw touched passes down as it is; a noisy copy
      // lives in a reused buffer, valid until the next add() (see
      // PauliFrameLayer).
      lower().add(model_.inject(circuit, num_qubits(), noisy_));
    }
  }

  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    peek_when_bypassed(observables, values);
  }

  [[nodiscard]] const qec::DepolarizingModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const qec::ErrorTally& tally() const noexcept {
    return model_.tally();
  }

  void save_state(journal::SnapshotWriter& out) const override {
    out.tag(section());
    model_.save(out);
    lower().save_state(out);
  }
  void load_state(journal::SnapshotReader& in) override {
    in.expect_tag(section());
    model_.load(in);
    lower().load_state(in);
  }

 private:
  [[nodiscard]] const char* section() const noexcept {
    return model_.bias() ? "biased-error-layer" : "error-layer";
  }

  qec::DepolarizingModel model_;
  Circuit noisy_;  ///< add()'s output buffer; not snapshot state
};

}  // namespace qpf::arch
