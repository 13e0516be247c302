#include "photonics/permutation.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace adept::photonics {

Permutation::Permutation(std::vector<int> map) : map_(std::move(map)) {
  if (!is_valid_permutation(map_)) {
    throw std::invalid_argument("Permutation: map is not a bijection");
  }
}

Permutation Permutation::identity(int k) {
  std::vector<int> m(static_cast<std::size_t>(k));
  std::iota(m.begin(), m.end(), 0);
  return Permutation(std::move(m));
}

Permutation Permutation::reversal(int k) {
  std::vector<int> m(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) m[static_cast<std::size_t>(i)] = k - 1 - i;
  return Permutation(std::move(m));
}

Permutation Permutation::random(int k, adept::Rng& rng) {
  std::vector<int> m(static_cast<std::size_t>(k));
  std::iota(m.begin(), m.end(), 0);
  rng.shuffle(m);
  return Permutation(std::move(m));
}

Permutation Permutation::from_positions(const std::vector<int>& target_of_source) {
  // target_of_source[s] = position where source lane s ends up; convert to
  // our convention map[i] = source lane feeding position i.
  std::vector<int> m(target_of_source.size(), -1);
  for (std::size_t s = 0; s < target_of_source.size(); ++s) {
    const int tgt = target_of_source[s];
    if (tgt < 0 || tgt >= static_cast<int>(target_of_source.size()) ||
        m[static_cast<std::size_t>(tgt)] != -1) {
      throw std::invalid_argument("from_positions: not a bijection");
    }
    m[static_cast<std::size_t>(tgt)] = static_cast<int>(s);
  }
  return Permutation(std::move(m));
}

bool Permutation::is_identity() const {
  for (std::size_t i = 0; i < map_.size(); ++i) {
    if (map_[i] != static_cast<int>(i)) return false;
  }
  return true;
}

Permutation Permutation::compose(const Permutation& other) const {
  if (size() != other.size()) throw std::invalid_argument("compose: size mismatch");
  std::vector<int> m(map_.size());
  for (std::size_t i = 0; i < map_.size(); ++i) {
    m[i] = other.map_[static_cast<std::size_t>(map_[i])];
  }
  return Permutation(std::move(m));
}

Permutation Permutation::inverse() const {
  std::vector<int> m(map_.size());
  for (std::size_t i = 0; i < map_.size(); ++i) {
    m[static_cast<std::size_t>(map_[i])] = static_cast<int>(i);
  }
  return Permutation(std::move(m));
}

RMat Permutation::to_matrix() const {
  const int k = size();
  RMat m(k, k);
  for (int i = 0; i < k; ++i) m.at(i, map_[static_cast<std::size_t>(i)]) = 1.0;
  return m;
}

CMat Permutation::to_cmatrix() const {
  const int k = size();
  CMat m(k, k);
  for (int i = 0; i < k; ++i) m.at(i, map_[static_cast<std::size_t>(i)]) = 1.0;
  return m;
}

std::string Permutation::to_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < map_.size(); ++i) {
    if (i > 0) s += " ";
    s += std::to_string(map_[i]);
  }
  return s + "]";
}

bool is_valid_permutation(const std::vector<int>& map) {
  std::vector<bool> seen(map.size(), false);
  for (int v : map) {
    if (v < 0 || v >= static_cast<int>(map.size()) || seen[static_cast<std::size_t>(v)]) {
      return false;
    }
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

namespace {

std::int64_t merge_count(std::vector<int>& a, std::vector<int>& tmp, std::size_t lo,
                         std::size_t hi) {
  if (hi - lo <= 1) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::int64_t inv = merge_count(a, tmp, lo, mid) + merge_count(a, tmp, mid, hi);
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (a[i] <= a[j]) {
      tmp[k++] = a[i++];
    } else {
      inv += static_cast<std::int64_t>(mid - i);
      tmp[k++] = a[j++];
    }
  }
  while (i < mid) tmp[k++] = a[i++];
  while (j < hi) tmp[k++] = a[j++];
  std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
            tmp.begin() + static_cast<std::ptrdiff_t>(hi),
            a.begin() + static_cast<std::ptrdiff_t>(lo));
  return inv;
}

}  // namespace

std::int64_t crossing_count(const Permutation& p) {
  std::vector<int> a = p.map();
  std::vector<int> tmp(a.size());
  return merge_count(a, tmp, 0, a.size());
}

std::int64_t SwapSchedule::total_swaps() const {
  std::int64_t n = 0;
  for (const auto& layer : layers) n += static_cast<std::int64_t>(layer.size());
  return n;
}

SwapSchedule route_permutation(const Permutation& p) {
  // Odd-even transposition sort of the target arrangement back to identity,
  // then reverse the schedule so it maps identity -> target. Each comparator
  // swaps only out-of-order pairs, so total swaps == inversion count.
  std::vector<int> arr = p.map();
  const int k = static_cast<int>(arr.size());
  std::vector<std::vector<int>> layers;
  bool changed = true;
  int parity = 0;
  int idle_rounds = 0;
  while (idle_rounds < 2) {
    changed = false;
    std::vector<int> layer;
    for (int i = parity; i + 1 < k; i += 2) {
      if (arr[static_cast<std::size_t>(i)] > arr[static_cast<std::size_t>(i + 1)]) {
        std::swap(arr[static_cast<std::size_t>(i)], arr[static_cast<std::size_t>(i + 1)]);
        layer.push_back(i);
        changed = true;
      }
    }
    if (!layer.empty()) layers.push_back(std::move(layer));
    idle_rounds = changed ? 0 : idle_rounds + 1;
    parity ^= 1;
  }
  std::reverse(layers.begin(), layers.end());
  SwapSchedule schedule;
  schedule.layers = std::move(layers);
  return schedule;
}

bool permutation_from_matrix(const RMat& m, double tol, Permutation* out) {
  if (m.rows() != m.cols()) return false;
  const std::int64_t k = m.rows();
  std::vector<int> map(static_cast<std::size_t>(k), -1);
  std::vector<bool> used(static_cast<std::size_t>(k), false);
  for (std::int64_t i = 0; i < k; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (m.at(i, j) > m.at(i, best)) best = j;
    }
    if (m.at(i, best) < 1.0 - tol) return false;
    if (used[static_cast<std::size_t>(best)]) return false;
    used[static_cast<std::size_t>(best)] = true;
    map[static_cast<std::size_t>(i)] = static_cast<int>(best);
  }
  if (out != nullptr) *out = Permutation(std::move(map));
  return true;
}

}  // namespace adept::photonics
