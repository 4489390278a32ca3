// BiasedErrorLayer: ErrorLayer's sibling injecting dephasing-biased
// Pauli noise (qec::BiasedNoiseModel) instead of the symmetric
// depolarizing channel.
#pragma once

#include <cstdint>

#include "arch/layer.h"
#include "qec/biased_noise.h"

namespace qpf::arch {

class BiasedErrorLayer final : public Layer {
 public:
  BiasedErrorLayer(Core* lower, double physical_error_rate, double bias,
                   std::uint64_t seed)
      : Layer(lower), model_(physical_error_rate, bias, seed) {}

  void add(const Circuit& circuit) override {
    if (bypass_) {
      lower().add(circuit);
    } else {
      lower().add(model_.inject(circuit, num_qubits()));
    }
  }

  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    peek_when_bypassed(observables, values);
  }

  [[nodiscard]] const qec::BiasedNoiseModel& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const qec::ErrorTally& tally() const noexcept {
    return model_.tally();
  }

  void save_state(journal::SnapshotWriter& out) const override {
    out.tag("biased-error-layer");
    model_.save(out);
    lower().save_state(out);
  }
  void load_state(journal::SnapshotReader& in) override {
    in.expect_tag("biased-error-layer");
    model_.load(in);
    lower().load_state(in);
  }

 private:
  qec::BiasedNoiseModel model_;
};

}  // namespace qpf::arch
