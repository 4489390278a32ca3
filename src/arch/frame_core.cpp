#include "arch/frame_core.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "arch/chp_core.h"
#include "circuit/bug_plant.h"
#include "circuit/error.h"
#include "core/pauli_frame.h"

namespace qpf::arch {

using pf::PauliRecord;

namespace {

// Past these the memo is dropped and rebuilt: chaos-dropped gates can
// keep reaching new reference states, which a QEC window never does.
constexpr std::size_t kMaxNodes = 64;
constexpr std::size_t kMaxEntries = 256;
// Memoised reads per memo: the diagnostics read two observable lists;
// a caller with ever new lists only ever refills this.
constexpr std::size_t kMaxReads = 256;
// Storage reserved at create_qubits(), so that warming the memo in a
// trial's first batches rarely grows it: a QEC window reaches 3-5
// nodes, and the skeletons a trial records hold about 14n operations
// at d = 3 (reset, preparation, and a few ESM rounds of about 3n).
constexpr std::size_t kReservedNodes = 8;
constexpr std::size_t kReservedSkeletonOps = 16;  // times n

/// The Pauli and Clifford rules both paths share: a Pauli multiplies
/// the record, a Clifford conjugates it (Tables 3.3-3.5), and either
/// leaves its qubits' binary values unknown (an identity keeps them).
/// A one-qubit operation's control() and target() are its qubit.
inline void track(const Operation& op, PauliRecord* frame,
                  BinaryValue* binary) noexcept {
  const Qubit a = op.control();
  const Qubit b = op.target();
  switch (op.gate()) {
    case GateType::kI:
      return;
    case GateType::kX:
    case GateType::kY:
    case GateType::kZ:
      frame[a] = pf::track_pauli(frame[a], op.gate());
      break;
    case GateType::kH:
      frame[a] = pf::map_h(frame[a]);
      break;
    case GateType::kS:
    case GateType::kSdag:
      frame[a] = pf::map_s(frame[a]);
      break;
    case GateType::kCnot:
      std::tie(frame[a], frame[b]) = pf::map_cnot(frame[a], frame[b]);
      break;
    case GateType::kCz:
      std::tie(frame[a], frame[b]) = pf::map_cz(frame[a], frame[b]);
      break;
    case GateType::kSwap:
      std::swap(frame[a], frame[b]);
      break;
    default:
      break;
  }
  binary[a] = BinaryValue::kUnknown;
  binary[b] = BinaryValue::kUnknown;
}

[[nodiscard]] PauliRecord without_x(PauliRecord r) noexcept {
  return pf::make_record(false, pf::has_z(r));
}

/// Words in one compiled column: 2n frame bits, then m outcome flips.
[[nodiscard]] std::size_t map_words(std::size_t n, std::size_t m) noexcept {
  return (2 * n + m + 63) / 64;
}

[[nodiscard]] bool bit_at(const std::uint64_t* words, std::size_t i) noexcept {
  return ((words[i / 64] >> (i % 64)) & 1) != 0;
}

// A template entry: the index of the outcome a qubit's last operation
// measured, or what else the skeleton leaves in its binary value.
constexpr std::uint32_t kKeeps = ~std::uint32_t{0};  // untouched
constexpr std::uint32_t kResets = kKeeps - 1;        // 0 after a reset
constexpr std::uint32_t kScrambles = kKeeps - 2;     // unknown after a gate

/// A hash to pick candidate nodes, which an exact compare confirms.
/// The products are independent, so it costs about a cycle a word.
[[nodiscard]] std::uint64_t hash_words(const std::uint64_t* words,
                                       std::size_t count) noexcept {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= std::rotl(words[i] * 0x9e3779b97f4a7c15ULL, static_cast<int>(i & 63));
  }
  return h;
}

}  // namespace

void FrameCore::create_qubits(std::size_t count) {
  if (count == 0) {
    throw StackConfigError("FrameCore", "zero qubits requested");
  }
  const std::size_t n = binary_.size() + count;
  // A fresh register is |0...0> with no Paulis on it.
  binary_.assign(n, BinaryValue::kZero);
  frame_.assign(n, PauliRecord::kI);
  tableau_ = std::make_unique<stab::Tableau>(n, seed_);
  queued_ = 0;
  clear_memo();
  image_words_ = tableau_->image_words();
  images_.reserve(kReservedNodes * image_words_);
  hints_.reserve(kReservedNodes * n);
  nodes_.reserve(kReservedNodes);
  entries_.reserve(kReservedNodes);
  skeletons_.reserve(kReservedSkeletonOps * n);
  bits_.reserve(2 * n);
  // A compiled ESM round measures fewer than n qubits.
  columns_.reserve(kReservedNodes * 2 * n * map_words(n, n));
  templates_.reserve(kReservedNodes * n);
  image_.reserve(map_words(n, n));
  frame_bits_.reserve(map_words(n, 0));
  // The fresh register is left once and never reached again, so it is
  // not worth a node: the first batch runs the tableau and records
  // nothing.
}

void FrameCore::remove_qubits() {
  tableau_.reset();
  binary_.clear();
  frame_.clear();
  queued_ = 0;
  clear_memo();
}

void FrameCore::add(const Circuit& circuit) {
  if (circuit.min_register_size() > binary_.size()) {
    throw StackConfigError("FrameCore", "circuit exceeds register");
  }
  // Copy into a slot the queue already owns, reusing its capacity.
  if (queued_ == queue_.size()) {
    queue_.push_back(circuit);
  } else {
    queue_[queued_] = circuit;
  }
  ++queued_;
}

void FrameCore::execute() {
  if (tableau_ == nullptr) {
    throw std::logic_error("FrameCore: no qubits allocated");
  }
  const std::size_t pending = queued_;
  queued_ = 0;  // cleared even if a gate below throws
  if (pending == 0) {
    return;
  }
  ++stats_.batches;
  if (node_ != kNone) {
    std::uint32_t* link = &nodes_[node_].first_entry;
    for (std::uint32_t e = *link; e != kNone; e = *link) {
      Entry& entry = entries_[e];
      if (hit(entry, pending)) {
        ++stats_.hits;
        node_ = entry.to;
        // Move to the front: a node is mostly left by one skeleton.
        *link = entry.next;
        entry.next = nodes_[entry.from].first_entry;
        nodes_[entry.from].first_entry = e;
        return;
      }
      link = &entry.next;
    }
  }
  run_reference(pending);
}

bool FrameCore::hit(Entry& e, std::size_t pending) {
  if (!matches(e, pending)) {
    return replay(e, pending);
  }
  if (e.columns == kNone) {
    compile(e);
  }
  apply_map(e);
  ++stats_.mapped;
  return true;
}

bool FrameCore::matches(const Entry& e, std::size_t pending) const {
  // Operations have no padding bytes, so equal bytes are equal
  // operations, and the skeleton holds no Pauli.
  const Operation* expected = skeletons_.data() + e.skeleton;
  std::size_t left = e.size;
  for (std::size_t c = 0; c < pending; ++c) {
    const SlotView ops = queue_[c].operations();
    if (ops.size() > left) {
      return false;
    }
    if (!ops.empty() &&
        std::memcmp(ops.begin(), expected, ops.size() * sizeof(Operation)) !=
            0) {
      return false;
    }
    expected += ops.size();
    left -= ops.size();
  }
  return left == 0;
}

void FrameCore::compile(Entry& e) {
  // The skeleton acts on the frame linearly over GF(2): a Clifford
  // permutes and XORs record bits, a reset clears an X bit, and an
  // outcome flips with the X bit at its measurement.  So each column
  // is one frame bit run alone through replay()'s rules.
  const std::size_t n = binary_.size();
  const std::size_t words = map_words(n, e.outcomes);
  const Operation* const skeleton = skeletons_.data() + e.skeleton;
  const Operation* const end = skeleton + e.size;
  e.columns = static_cast<std::uint32_t>(columns_.size());
  e.layout = static_cast<std::uint32_t>(templates_.size());
  columns_.resize(columns_.size() + 2 * n * words, 0);
  templates_.resize(templates_.size() + n, kKeeps);
  std::uint32_t* layout = templates_.data() + e.layout;
  std::uint32_t outcome = 0;
  for (const Operation* op = skeleton; op != end; ++op) {
    switch (op->gate()) {
      case GateType::kPrepZ:
        layout[op->control()] = kResets;
        break;
      case GateType::kMeasureZ:
        layout[op->control()] = outcome++;
        break;
      default:
        layout[op->control()] = kScrambles;
        layout[op->target()] = kScrambles;
        break;
    }
  }
  // mutation hook: a compiled reset keeps the X bit
  const bool reset_clears_x = !plant::bug(19);
  saved_frame_.resize(n);
  saved_binary_.resize(n);
  PauliRecord* frame = saved_frame_.data();
  BinaryValue* binary = saved_binary_.data();
  for (std::size_t bit = 0; bit < 2 * n; ++bit) {
    std::uint64_t* column = columns_.data() + e.columns + bit * words;
    std::fill(frame, frame + n, PauliRecord::kI);
    frame[bit / 2] = bit % 2 == 0 ? PauliRecord::kX : PauliRecord::kZ;
    std::size_t flip = 2 * n;
    for (const Operation* op = skeleton; op != end; ++op) {
      const Qubit q = op->control();
      switch (op->gate()) {
        case GateType::kPrepZ:
          if (reset_clears_x) {
            frame[q] = without_x(frame[q]);
          }
          break;
        case GateType::kMeasureZ:
          if (pf::has_x(frame[q])) {
            column[flip / 64] |= std::uint64_t{1} << (flip % 64);
          }
          ++flip;
          break;
        default:
          track(*op, frame, binary);
          break;
      }
    }
    for (std::size_t q = 0; q < n; ++q) {
      column[q / 32] |= std::uint64_t{static_cast<std::uint8_t>(frame[q])}
                        << (2 * q % 64);
    }
  }
}

void FrameCore::apply_map(const Entry& e) {
  const std::size_t n = binary_.size();
  const std::size_t words = map_words(n, e.outcomes);
  // The frame's bits, packed as the columns index them; then the XOR
  // of the columns of its set bits.
  PauliRecord* frame = frame_.data();
  frame_bits_.resize(map_words(n, 0));
  for (std::size_t w = 0; w < frame_bits_.size(); ++w) {
    std::uint64_t packed = 0;
    for (std::size_t q = 32 * w; q < std::min(n, 32 * w + 32); ++q) {
      packed |= std::uint64_t{static_cast<std::uint8_t>(frame[q])}
                << (2 * q % 64);
    }
    frame_bits_[w] = packed;
  }
  image_.resize(words);
  std::uint64_t* image = image_.data();
  const std::uint64_t* columns = columns_.data() + e.columns;
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t sum = 0;
    for (std::size_t w = 0; w < frame_bits_.size(); ++w) {
      for (std::uint64_t set = frame_bits_[w]; set != 0; set &= set - 1) {
        const auto bit =
            64 * w + static_cast<std::size_t>(std::countr_zero(set));
        sum ^= columns[bit * words + k];
      }
    }
    image[k] = sum;
  }
  for (std::size_t q = 0; q < n; ++q) {
    frame[q] = static_cast<PauliRecord>((image[q / 32] >> (2 * q % 64)) & 3);
  }
  // A memoised outcome is the reference bit XOR its flip.
  const bool see_x = !plant::bug(17);  // mutation hook
  const std::uint8_t* bits = bits_.data() + e.bits;
  const std::uint32_t* layout = templates_.data() + e.layout;
  BinaryValue* binary = binary_.data();
  for (std::size_t q = 0; q < n; ++q) {
    const std::uint32_t t = layout[q];
    if (t == kKeeps) {
      continue;
    }
    if (t == kResets) {
      binary[q] = BinaryValue::kZero;
    } else if (t == kScrambles) {
      binary[q] = BinaryValue::kUnknown;
    } else {
      const bool flip = see_x && bit_at(image, 2 * n + t);
      binary[q] = (bits[t] != 0) != flip ? BinaryValue::kOne
                                         : BinaryValue::kZero;
    }
  }
}

bool FrameCore::replay(const Entry& e, std::size_t pending) {
  saved_frame_ = frame_;
  saved_binary_ = binary_;
  const Operation* expected = skeletons_.data() + e.skeleton;
  const Operation* const end = expected + e.size;
  const std::uint8_t* bit = bits_.data() + e.bits;
  // A memoised outcome is the reference bit XOR the record's X part.
  const std::uint8_t see_x = plant::bug(17) ? 0 : 1;  // mutation hook
  PauliRecord* frame = frame_.data();
  BinaryValue* binary = binary_.data();
  const auto differs = [&] {
    frame_ = saved_frame_;
    binary_ = saved_binary_;
    return false;
  };
  for (std::size_t c = 0; c < pending; ++c) {
    for (const Operation& op : queue_[c].operations()) {
      if (is_pauli(op.gate())) {
        track(op, frame, binary);
        continue;
      }
      if (expected == end || !(op == *expected)) {
        return differs();
      }
      ++expected;
      const Qubit q = op.control();
      switch (op.gate()) {
        case GateType::kPrepZ:
          frame[q] = without_x(frame[q]);
          binary[q] = BinaryValue::kZero;
          break;
        case GateType::kMeasureZ:
          binary[q] = (*bit++ ^ (static_cast<std::uint8_t>(frame[q]) & see_x))
                          ? BinaryValue::kOne
                          : BinaryValue::kZero;
          break;
        default:
          track(op, frame, binary);
          break;
      }
    }
  }
  return expected == end || differs();
}

void FrameCore::run_reference(std::size_t pending) {
  materialize();
  if (nodes_.size() >= kMaxNodes || entries_.size() >= kMaxEntries) {
    clear_memo();  // the working tableau already holds the reference
  }
  const std::uint32_t from = node_;
  node_ = kNone;
  tableau_node_ = kNone;
  // A run from a state outside the memo cannot become an entry.
  const bool record = from != kNone;
  const std::size_t skeleton = skeletons_.size();
  const std::size_t bits = bits_.size();
  const auto discard = [&] {
    skeletons_.erase(skeletons_.begin() + static_cast<std::ptrdiff_t>(skeleton),
                     skeletons_.end());
    bits_.resize(bits);
  };
  bool drew = false;
  try {
    for (std::size_t c = 0; c < pending; ++c) {
      for (const Operation& op : queue_[c].operations()) {
        if (is_pauli(op.gate())) {
          track(op, frame_.data(), binary_.data());
          continue;
        }
        if (record) {
          skeletons_.push_back(op);
        }
        const Qubit q = op.control();
        if (op.gate() != GateType::kPrepZ && op.gate() != GateType::kMeasureZ) {
          tableau_->apply_unitary(op);  // throws for T and T-dagger
          track(op, frame_.data(), binary_.data());
          continue;
        }
        if (pf::has_x(frame_[q])) {
          absorb_pivot(q);
        }
        const stab::MeasureResult m = tableau_->measure(q);
        drew = drew || !m.deterministic;
        if (op.gate() == GateType::kMeasureZ) {
          if (record) {
            bits_.push_back(m.value ? 1 : 0);
          }
          binary_[q] = m.value != pf::has_x(frame_[q]) ? BinaryValue::kOne
                                                       : BinaryValue::kZero;
        } else {
          // ChpCore's tableau applies X after a 1, the reference after
          // its own 1.  They differ by the record's X part, which the
          // reset therefore clears.
          if (m.value) {
            tableau_->apply_x(q);
          }
          frame_[q] = without_x(frame_[q]);
          binary_[q] = BinaryValue::kZero;
        }
      }
    }
  } catch (...) {
    discard();
    throw;
  }
  const std::uint32_t to = identify();
  node_ = to;
  if (drew || !record) {
    discard();
    return;
  }
  entries_.push_back(Entry{from, to, nodes_[from].first_entry,
                           static_cast<std::uint32_t>(skeleton),
                           static_cast<std::uint32_t>(skeletons_.size() -
                                                      skeleton),
                           static_cast<std::uint32_t>(bits),
                           static_cast<std::uint32_t>(bits_.size() - bits),
                           kNone, kNone});
  nodes_[from].first_entry = static_cast<std::uint32_t>(entries_.size() - 1);
}

void FrameCore::absorb_pivot(Qubit q) {
  // A random outcome is drawn alike by both tableaus; for the rows to
  // keep differing only by the frame, the frame must commute with the
  // new +/-Z_q row.  Multiplying it by the replaced stabilizer P does
  // that, and applying P to the reference too (P fixes its state; only
  // the signs of rows anticommuting with P flip) keeps the frame times
  // the reference equal to ChpCore's tableau.
  const std::optional<std::size_t> pivot = tableau_->random_pivot(q);
  if (!pivot) {
    return;
  }
  const stab::PauliString p = tableau_->stabilizer(*pivot);
  tableau_->apply_pauli(p);
  for (std::size_t k = 0; k < p.num_qubits(); ++k) {
    frame_[k] = static_cast<PauliRecord>(static_cast<std::uint8_t>(frame_[k]) ^
                                         static_cast<std::uint8_t>(p.pauli(k)));
  }
}

void FrameCore::materialize() const {
  if (node_ != kNone && tableau_node_ != node_) {
    tableau_->assign_image(images_.data() + node_ * image_words_,
                           hints_.data() + node_ * binary_.size());
    tableau_node_ = node_;
  }
}

std::uint32_t FrameCore::identify() {
  const std::size_t n = binary_.size();
  const std::size_t count = nodes_.size();
  images_.resize((count + 1) * image_words_);
  hints_.resize((count + 1) * n);
  std::uint64_t* image = images_.data() + count * image_words_;
  tableau_->copy_image(image, hints_.data() + count * n);
  const std::uint64_t hash = hash_words(image, image_words_);
  for (std::size_t i = 0; i < count; ++i) {
    if (nodes_[i].hash == hash &&
        std::equal(image, image + image_words_,
                   images_.data() + i * image_words_)) {
      images_.resize(count * image_words_);
      hints_.resize(count * n);
      tableau_node_ = static_cast<std::uint32_t>(i);
      return tableau_node_;
    }
  }
  nodes_.push_back(Node{hash, kNone});
  tableau_node_ = static_cast<std::uint32_t>(count);
  return tableau_node_;
}

void FrameCore::clear_memo() {
  node_ = kNone;
  tableau_node_ = kNone;
  images_.clear();
  hints_.clear();
  nodes_.clear();
  entries_.clear();
  skeletons_.clear();
  bits_.clear();
  columns_.clear();
  templates_.clear();
  reads_.clear();
}

void FrameCore::peek(std::span<const stab::SparsePauli> observables,
                     std::span<int> values) const {
  if (tableau_ == nullptr) {
    throw std::logic_error("FrameCore: no qubits allocated");
  }
  if (observables.size() != values.size()) {
    throw std::invalid_argument("FrameCore: one value per observable");
  }
  if (queued_ != 0) {
    std::fill(values.begin(), values.end(), 0);
    return;
  }
  const Read* read = nullptr;
  if (node_ != kNone) {
    for (const Read& r : reads_) {
      if (r.node == node_ &&
          std::equal(r.observables.begin(), r.observables.end(),
                     observables.begin(), observables.end())) {
        read = &r;
        break;
      }
    }
  }
  if (read != nullptr) {
    std::copy(read->values.begin(), read->values.end(), values.begin());
  } else {
    materialize();
    tableau_->expectations(observables, values);
    if (node_ != kNone) {
      if (reads_.size() >= kMaxReads) {
        reads_.clear();
      }
      reads_.push_back(Read{node_, {observables.begin(), observables.end()},
                            {values.begin(), values.end()}});
    }
  }
  pf::correct_values(frame_, observables, values);
}

void FrameCore::save_state(journal::SnapshotWriter& out) const {
  if (tableau_ == nullptr) {
    write_chp_core_section(out, seed_, nullptr, binary_,
                           {queue_.data(), queued_});
    return;
  }
  // ChpCore's tableau: the reference with the frame applied.
  materialize();
  stab::Tableau tableau = *tableau_;
  for (std::size_t q = 0; q < frame_.size(); ++q) {
    if (pf::has_x(frame_[q])) {
      tableau.apply_x(static_cast<Qubit>(q));
    }
    if (pf::has_z(frame_[q])) {
      tableau.apply_z(static_cast<Qubit>(q));
    }
  }
  write_chp_core_section(out, seed_, &tableau, binary_,
                         {queue_.data(), queued_});
}

void FrameCore::load_state(journal::SnapshotReader& in) {
  ChpCoreSection section = read_chp_core_section(in);
  // The memo describes reference states of this register size, so it
  // stays valid unless the size changes.
  const bool same_register = section.binary.size() == binary_.size();
  seed_ = section.seed;
  tableau_ = std::move(section.tableau);
  binary_ = std::move(section.binary);
  queue_ = std::move(section.queue);
  queued_ = queue_.size();
  frame_.assign(binary_.size(), PauliRecord::kI);
  if (!same_register || tableau_ == nullptr) {
    clear_memo();
  }
  node_ = kNone;
  tableau_node_ = kNone;
  if (tableau_ != nullptr) {
    image_words_ = tableau_->image_words();
    node_ = identify();
  }
}

}  // namespace qpf::arch
