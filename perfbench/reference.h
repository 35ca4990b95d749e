// The host-speed reference: a fixed kernel that uses no FairCap code.
// Timed next to the ops of the same run, it tells how fast the host runs
// at that moment, and the end-to-end times are reported in units of it
// (scaled to kReferenceSeconds). On a shared host whose speed drifts for
// minutes at a time, the ratio moves much less than the wall time does.
// A change to FairCap cannot move the kernel: it calls nothing in src/.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A normalised time t means: the work took t seconds on a host where one
/// reference kernel run takes kReferenceSeconds.
inline constexpr double kReferenceSeconds = 0.1;

/// The kernel with its inputs, made once so that no run of it pays for
/// page faults.
class ReferenceKernel {
 public:
  /// One thread's inputs: 1M rows of cell ids and outcomes, and bitmaps.
  struct Buffers {
    std::vector<uint16_t> cells;
    std::vector<double> outcome;
    std::vector<uint64_t> bitmaps;
  };

  explicit ReferenceKernel(size_t threads);

  /// Runs the kernel once on each of the threads at the same time and
  /// returns the wall seconds until the last one finished. `*checksum`
  /// receives the kernel's result, which is the same on every call.
  double Time(uint64_t* checksum);

 private:
  std::vector<Buffers> buffers_;  ///< one per thread
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
