// Host-speed calibration for the campaign benchmark.
//
// The benchmark's host is shared, and its speed drifts by tens of percent
// over minutes with the neighbours' load on caches and memory.  A fixed
// reference loop, run in short slices between the benchmark's units of work,
// slows down with them.  Each timed unit of work is rescaled by the slices
// run just before and after it, relative to their nominal time, which takes
// out the drift the program and the loop share.  The loop is the benchmark's own
// code, so nothing a change to the libraries does can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// A timed interval on the steady clock.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Calibration {
 public:
  // Seconds one slice takes on the reference host (4 vCPUs, quiet spell).
  // Host-time metrics are reported as if every slice had taken this long.
  static constexpr double kNominalSliceSeconds = 0.010;

  Calibration();

  // Runs one fixed slice of the reference loop and keeps its interval.
  void Slice();

  // `work`'s duration rescaled to the reference host: divided by the mean
  // of the last slice before it and the first slice after it, relative to
  // the nominal slice time.  Unscaled when no slice brackets it.
  double Rescaled(const Interval& work) const;

  // The factor that rescales a single, unrepeated piece of work to the
  // reference host: the nominal slice time over the median of the last `n`
  // slices, run around it.  1 when there are none.
  double RecentFactor(std::size_t n) const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<std::uint8_t> ops_;
  std::uint32_t regs_[16];
  std::vector<Interval> slices_;  // in time order
};

}  // namespace perfbench
