// Q Symbol Table (thesis §3.5.1): the run-time map from compiler-
// visible virtual qubit addresses to physical qubit addresses, plus the
// bookkeeping of which logical patches are alive.
//
// Virtual addressing convention: virtual qubit v belongs to patch
// v / kPatchStride at patch-local offset v % kPatchStride.  A patch is
// an SC17 ninja star (17 physical qubits); physical placement slots are
// also 17 qubits wide, so relocating a patch is a single table update.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/operation.h"

namespace qpf::qcu {

using PatchId = std::uint16_t;

class QSymbolTable {
 public:
  /// One SC17 star: 9 data qubits and 8 ancillas.
  static constexpr std::uint16_t kPatchStride = 17;

  /// A machine with `slots` physical placement slots (17 qubits each).
  explicit QSymbolTable(std::size_t slots);

  [[nodiscard]] std::size_t num_slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t num_physical_qubits() const noexcept {
    return slots_ * kPatchStride;
  }

  /// Map patch -> physical slot.  Throws std::invalid_argument if the
  /// slot is occupied or out of range.
  void map_patch(PatchId patch, std::uint16_t slot);

  /// Deallocate a patch; throws std::invalid_argument if not alive.
  void unmap_patch(PatchId patch);

  [[nodiscard]] bool alive(PatchId patch) const noexcept;

  /// Physical base address of a live patch; throws std::out_of_range
  /// for dead patches.
  [[nodiscard]] Qubit base(PatchId patch) const;

  /// Q-Address Translation: virtual qubit -> physical qubit.  Throws
  /// std::out_of_range if the owning patch is not alive.
  [[nodiscard]] Qubit translate(std::uint16_t virtual_qubit) const;

  /// Patch owning a virtual qubit.
  [[nodiscard]] static PatchId patch_of(std::uint16_t virtual_qubit) noexcept {
    return static_cast<PatchId>(virtual_qubit / kPatchStride);
  }

  /// All live patches, ascending.
  [[nodiscard]] std::vector<PatchId> live_patches() const;

 private:
  std::size_t slots_;
  std::vector<std::optional<std::uint16_t>> slot_of_patch_;  // by patch id
  std::vector<bool> slot_used_;
};

}  // namespace qpf::qcu
