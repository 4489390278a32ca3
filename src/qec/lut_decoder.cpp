#include "qec/lut_decoder.h"

#include <stdexcept>

namespace qpf::qec {

LutDecoder::LutDecoder(const std::array<std::uint16_t, 4>& check_masks,
                       int num_data_qubits,
                       std::uint16_t even_overlap_mask)
    : num_data_(num_data_qubits) {
  if (num_data_qubits <= 0 || num_data_qubits > 16) {
    throw std::invalid_argument("LutDecoder: bad data qubit count");
  }
  signatures_.resize(static_cast<std::size_t>(num_data_qubits), 0);
  for (int q = 0; q < num_data_qubits; ++q) {
    unsigned sig = 0;
    for (unsigned bit = 0; bit < 4; ++bit) {
      if (check_masks[bit] & (1u << q)) {
        sig |= 1u << bit;
      }
    }
    signatures_[static_cast<std::size_t>(q)] = sig;
  }

  // Fill the table with the minimum-weight correction per syndrome:
  // subsets in order of weight, lexicographically within a weight, and
  // the first that fits a syndrome wins.
  std::array<bool, 16> filled{};
  filled[0] = true;
  int unfilled = 15;
  const std::size_t n = signatures_.size();
  std::array<std::size_t, 16> subset{};
  for (std::size_t weight = 1; weight <= n && unfilled > 0; ++weight) {
    for (std::size_t i = 0; i < weight; ++i) {
      subset[i] = i;
    }
    while (true) {
      unsigned sig = 0;
      unsigned overlap = 0;
      for (std::size_t i = 0; i < weight; ++i) {
        sig ^= signatures_[subset[i]];
        overlap += (even_overlap_mask >> subset[i]) & 1u;
      }
      if (!filled[sig] && overlap % 2 == 0) {
        filled[sig] = true;
        --unfilled;
        table_[sig].assign(subset.begin(), subset.begin() + weight);
      }
      // Next subset of this weight: bump the last index that can still
      // move and pack the ones after it right behind it.
      std::size_t i = weight;
      while (i > 0 && subset[i - 1] == n - weight + i - 1) {
        --i;
      }
      if (i == 0) {
        break;
      }
      ++subset[i - 1];
      for (std::size_t j = i; j < weight; ++j) {
        subset[j] = subset[j - 1] + 1;
      }
    }
  }
  for (unsigned s = 0; s < 16; ++s) {
    if (!filled[s]) {
      throw std::invalid_argument(
          "LutDecoder: syndrome space not covered by check masks");
    }
  }
}

const std::vector<int>& LutDecoder::decode(unsigned syndrome) const {
  if (syndrome >= 16) {
    throw std::out_of_range("LutDecoder: syndrome out of range");
  }
  return table_[syndrome];
}

unsigned LutDecoder::signature(int data_qubit) const {
  if (data_qubit < 0 || data_qubit >= num_data_) {
    throw std::out_of_range("LutDecoder: data qubit out of range");
  }
  return signatures_[static_cast<std::size_t>(data_qubit)];
}

unsigned LutDecoder::signature(const std::vector<int>& data_qubits) const {
  unsigned sig = 0;
  for (int q : data_qubits) {
    sig ^= signature(q);
  }
  return sig;
}

}  // namespace qpf::qec
