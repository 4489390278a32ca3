// ChpCore: the QPDO core backed by the stabilizer tableau simulator
// (thesis §4.2.3).  Simulates Clifford circuits only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/core_interface.h"
#include "stabilizer/tableau.h"

namespace qpf::arch {

/// The "chp-core" snapshot section: ChpCore's state, which FrameCore
/// writes too (its tableau with the frame applied), so a checkpoint
/// moves between the two cores.
struct ChpCoreSection {
  std::uint64_t seed = 0;
  std::unique_ptr<stab::Tableau> tableau;  ///< null before create_qubits
  BinaryState binary;
  std::vector<Circuit> queue;              ///< added, not yet executed
};

void write_chp_core_section(journal::SnapshotWriter& out, std::uint64_t seed,
                            const stab::Tableau* tableau,
                            const BinaryState& binary,
                            std::span<const Circuit> queue);

/// Reads and checks a whole section before returning it, so a caller
/// that commits only the result is never left half loaded.  Throws
/// qpf::CheckpointError on a malformed section.
[[nodiscard]] ChpCoreSection read_chp_core_section(
    journal::SnapshotReader& in);

class ChpCore final : public Core {
 public:
  explicit ChpCore(std::uint64_t seed = 1) : seed_(seed) {}

  void create_qubits(std::size_t count) override;
  void remove_qubits() override;
  void add(const Circuit& circuit) override;
  void execute() override;
  [[nodiscard]] BinaryState get_state() const override;
  [[nodiscard]] std::optional<sv::StateVector> get_quantum_state()
      const override;
  [[nodiscard]] std::size_t num_qubits() const override {
    return binary_.size();
  }
  /// Answered from the tableau (Tableau::expectations); 0 while added
  /// circuits wait for execute(), since layers above may already have
  /// accounted for them.
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override;

  /// Direct tableau access for stabilizer assertions in tests.  Null
  /// until qubits exist.
  [[nodiscard]] const stab::Tableau* tableau() const noexcept {
    return tableau_.get();
  }

  [[nodiscard]] bool snapshot_supported() const override { return true; }
  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  std::uint64_t seed_;
  std::unique_ptr<stab::Tableau> tableau_;
  BinaryState binary_;
  /// Queued circuits are queue_[0, queued_); the slots beyond stay
  /// allocated so later add() calls copy without allocating.
  std::vector<Circuit> queue_;
  std::size_t queued_ = 0;
};

}  // namespace qpf::arch
