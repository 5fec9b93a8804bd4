#include "calibration.h"

#include <algorithm>
#include <iterator>

#include "probes.h"

namespace perfbench {
namespace {

// The loop resembles the simulator's inner loop: a switch dispatch over a
// fixed op stream, register arithmetic, and loads and stores scattered over
// a table larger than the per-core caches.
constexpr std::size_t kTableWords = (8u << 20) / sizeof(std::uint32_t);
constexpr std::size_t kOps = 4096;
constexpr long kStepsPerSlice = 800000;

}  // namespace

Calibration::Calibration() : table_(kTableWords), ops_(kOps) {
  for (std::size_t i = 0; i < table_.size(); ++i) {
    table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  std::uint64_t x = 88172645463325252ull;
  for (std::uint8_t& op : ops_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    op = static_cast<std::uint8_t>(x % 8);
  }
  for (std::uint32_t i = 0; i < 16; ++i) regs_[i] = i + 1;
}

void Calibration::Slice() {
  Interval slice;
  slice.start_ns = NowNs();
  std::uint32_t* r = regs_;
  std::size_t pc = 0;
  for (long s = 0; s < kStepsPerSlice; ++s) {
    const std::uint32_t a = r[s & 15];
    const std::uint32_t b = r[(s >> 4) & 15];
    switch (ops_[pc]) {
      case 0: r[s & 15] = a + b; break;
      case 1: r[s & 15] = a * b + 1; break;
      case 2: r[s & 15] = table_[(a ^ b) % kTableWords]; break;
      case 3: table_[(a + static_cast<std::uint32_t>(s)) % kTableWords] = b; break;
      case 4: r[s & 15] = a ^ (b >> 3); break;
      case 5: if (a & 1) pc = (pc + 7) % kOps; break;
      case 6: r[s & 15] = (a << 5) | (b >> 27); break;
      default: r[s & 15] = a - b; break;
    }
    pc = (pc + 1) % kOps;
  }
  slice.end_ns = NowNs();
  slices_.push_back(slice);
}

double Calibration::Rescaled(const Interval& work) const {
  // First slice that starts at or after the work ends; the one before it
  // is the last that could end before the work starts.
  const auto after = std::lower_bound(
      slices_.begin(), slices_.end(), work.end_ns,
      [](const Interval& slice, std::int64_t t) { return slice.start_ns < t; });
  double sum = 0;
  int count = 0;
  if (after != slices_.end()) {
    sum += after->seconds();
    ++count;
  }
  if (after != slices_.begin() && std::prev(after)->end_ns <= work.start_ns) {
    sum += std::prev(after)->seconds();
    ++count;
  }
  if (count == 0) return work.seconds();
  return work.seconds() * kNominalSliceSeconds / (sum / count);
}

double Calibration::RecentFactor(std::size_t n) const {
  n = std::min(n, slices_.size());
  if (n == 0) return 1.0;
  std::vector<double> seconds;
  for (auto it = slices_.end() - static_cast<std::ptrdiff_t>(n); it != slices_.end(); ++it) {
    seconds.push_back(it->seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  const double median = n % 2 == 1 ? seconds[n / 2] : (seconds[n / 2 - 1] + seconds[n / 2]) / 2;
  return kNominalSliceSeconds / median;
}

}  // namespace perfbench
