// FrameCore: the LerStack's core.  It behaves exactly like ChpCore --
// the same get_state(), peek() values and save_state() bytes from the
// same seed -- but keeps the Pauli part of the state as a per-qubit
// frame of records (pauli_record.h) over a noiseless reference
// tableau, as the paper's Pauli frame does for the hardware (DESIGN.md,
// "Exact frame core").
//
//   - I/X/Y/Z gates only flip records; Clifford gates conjugate them.
//   - The rest of a batch -- its Clifford skeleton -- runs on the
//     reference.  A skeleton that drew no randomness from a reference
//     state is memoised: (state, skeleton) -> its measurement bits and
//     the state it leads to.  On a hit a deterministic outcome is the
//     memoised bit XOR the record's X component, and no tableau runs.
//   - A batch that is its skeleton exactly -- no Pauli in it, as in
//     every clean ESM round -- is confirmed with one byte compare and
//     answered from the entry's compiled map: the skeleton's linear
//     action on the frame bits and outcome flips, built at the entry's
//     first such hit.  A batch with Paulis replays the entry op by op.
//   - Reference states are nodes: a hash of the tableau's words
//     confirmed by an exact compare, so the ESM rounds of a QEC window
//     cycle through a handful of them.
//
// The reference's X/Z words always equal those of the ChpCore that ran
// the same stream, and its signs differ exactly where the frame
// anticommutes with a row, so a snapshot is the reference with the
// frame applied: the "chp-core" section, byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/core_interface.h"
#include "core/pauli_record.h"
#include "stabilizer/tableau.h"

namespace qpf::arch {

class FrameCore final : public Core {
 public:
  /// How often the reference tableau ran (misses) and how often it did
  /// not (hits: a memoised skeleton, or a batch of Paulis only).
  struct MemoStats {
    std::size_t batches = 0;  ///< execute() calls with queued circuits
    std::size_t hits = 0;
    std::size_t mapped = 0;  ///< hits answered from a compiled map
    std::size_t nodes = 0;   ///< reference states the memo holds now
  };

  explicit FrameCore(std::uint64_t seed = 1) : seed_(seed) {}

  void create_qubits(std::size_t count) override;
  void remove_qubits() override;
  void add(const Circuit& circuit) override;
  void execute() override;
  [[nodiscard]] BinaryState get_state() const override { return binary_; }
  [[nodiscard]] std::optional<sv::StateVector> get_quantum_state()
      const override {
    return std::nullopt;
  }
  [[nodiscard]] std::size_t num_qubits() const override {
    return binary_.size();
  }
  /// ChpCore's answer: the reference's Tableau::expectations, memoised
  /// per node, negated where the frame anticommutes.  0 while added
  /// circuits wait for execute().  Not safe to call from two threads at
  /// once (it may restore and read the working tableau).
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override;

  [[nodiscard]] bool snapshot_supported() const override { return true; }
  /// Writes ChpCore's "chp-core" section.
  void save_state(journal::SnapshotWriter& out) const override;
  /// Reads a "chp-core" section: its tableau becomes the reference,
  /// with an identity frame.
  void load_state(journal::SnapshotReader& in) override;

  [[nodiscard]] MemoStats memo_stats() const noexcept {
    return {stats_.batches, stats_.hits, stats_.mapped, nodes_.size()};
  }

 private:
  /// A memoised draw-free run of a skeleton from node `from`.
  struct Entry {
    std::uint32_t from;
    std::uint32_t to;
    std::uint32_t next;  ///< next entry from the same node, or kNone
    std::uint32_t skeleton;  ///< first op in skeletons_
    std::uint32_t size;      ///< skeleton length
    std::uint32_t bits;      ///< first outcome in bits_
    std::uint32_t outcomes;  ///< measurements in the skeleton
    /// The compiled map: first word in columns_ and first qubit in
    /// templates_; kNone until the first hit by a Pauli-free batch.
    std::uint32_t columns;
    std::uint32_t layout;
  };
  /// A reference state; its image is the node's slice of images_.
  struct Node {
    std::uint64_t hash;  ///< of the image's words
    std::uint32_t first_entry;  ///< entries from here, or kNone
  };
  /// A memoised peek() at a node.
  struct Read {
    std::uint32_t node;
    std::vector<stab::SparsePauli> observables;
    std::vector<int> values;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Run the queued skeleton on the working tableau, recording it as an
  /// entry when it draws nothing.
  void run_reference(std::size_t pending);
  /// Run entry `e` over the queue; false (nothing changed) when the
  /// queued skeleton differs from it.
  [[nodiscard]] bool hit(Entry& e, std::size_t pending);
  /// True when the queued operations are e's skeleton, byte for byte:
  /// then the batch holds no Pauli either.
  [[nodiscard]] bool matches(const Entry& e, std::size_t pending) const;
  /// Build e's compiled map from its skeleton.
  void compile(Entry& e);
  /// Apply e's compiled map to the frame and the binary state.
  void apply_map(const Entry& e);
  /// Replay entry `e` over the queue op by op, Paulis included; false
  /// (nothing changed) when the queued skeleton differs from it.
  [[nodiscard]] bool replay(const Entry& e, std::size_t pending);
  /// Make the working tableau hold node_'s state.
  void materialize() const;
  /// The node of the working tableau's state, added when new.
  [[nodiscard]] std::uint32_t identify();
  void clear_memo();
  /// The frame absorbs the stabilizer a random measurement of q
  /// replaces, so that it commutes with the outcome.
  void absorb_pivot(Qubit q);

  std::uint64_t seed_;
  /// The working reference tableau; its RNG is the core's only one.
  /// peek() and save_state() may restore a node's state into it.
  std::unique_ptr<stab::Tableau> tableau_;
  std::vector<pf::PauliRecord> frame_;
  BinaryState binary_;
  std::vector<Circuit> queue_;
  std::size_t queued_ = 0;

  // The memo.  node_ is the reference's current node (kNone: the
  // working tableau holds a state not in the memo); tableau_node_ the
  // node whose state the working tableau holds.
  std::uint32_t node_ = kNone;
  mutable std::uint32_t tableau_node_ = kNone;
  std::size_t image_words_ = 0;
  std::vector<std::uint64_t> images_;  ///< image_words_ per node
  std::vector<std::uint8_t> hints_;    ///< Z hints, n per node
  std::vector<Node> nodes_;
  std::vector<Entry> entries_;
  std::vector<Operation> skeletons_;
  std::vector<std::uint8_t> bits_;
  // Compiled maps.  An entry with n qubits and m outcomes has 2n
  // columns of map_words(n, m) words, one per frame bit (X of qubit q at
  // bit 2q, Z at 2q + 1): the bit's image in the frame after the
  // skeleton, then from bit 2n on its flip of each outcome.  Its
  // template says per qubit what the skeleton leaves in binary_.
  std::vector<std::uint64_t> columns_;
  std::vector<std::uint32_t> templates_;
  // apply_map() scratch: the packed frame, and its image.
  std::vector<std::uint64_t> frame_bits_;
  std::vector<std::uint64_t> image_;
  mutable std::vector<Read> reads_;
  MemoStats stats_;
  // replay() restores these when the queued skeleton differs;
  // compile() runs frame bits through a skeleton in them.
  std::vector<pf::PauliRecord> saved_frame_;
  BinaryState saved_binary_;
};

}  // namespace qpf::arch
