// CounterLayer: diagnostic layer counting operations and time slots that
// pass between two other layers (thesis §4.2.3).  Placed around the
// Pauli frame layer, the difference between two counters yields the
// "saved gates / time slots" statistics of Figs 5.25 / 5.26.
#pragma once

#include "arch/layer.h"

namespace qpf::arch {

struct Counters {
  std::size_t operations = 0;
  std::size_t time_slots = 0;
  std::size_t circuits = 0;
};

class CounterLayer final : public Layer {
 public:
  using Layer::Layer;

  void add(const Circuit& circuit) override {
    if (!bypass_) {
      counters_.operations += circuit.num_operations();
      counters_.time_slots += circuit.num_slots();
      ++counters_.circuits;
    }
    lower().add(circuit);
  }

  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    peek_when_bypassed(observables, values);
  }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = {}; }

  void save_state(journal::SnapshotWriter& out) const override {
    out.tag("counter-layer");
    out.write_size(counters_.operations);
    out.write_size(counters_.time_slots);
    out.write_size(counters_.circuits);
    lower().save_state(out);
  }
  void load_state(journal::SnapshotReader& in) override {
    in.expect_tag("counter-layer");
    counters_.operations = in.read_size();
    counters_.time_slots = in.read_size();
    counters_.circuits = in.read_size();
    lower().load_state(in);
  }

 private:
  Counters counters_;
};

}  // namespace qpf::arch
