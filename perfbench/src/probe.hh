/**
 * @file
 * Host-speed probe.
 *
 * The benchmark shares its machine with other tenants, and the host's
 * speed drifts in phases that last seconds to minutes: the same
 * fabric job takes 18 ms in one phase and 31 ms in the next.  A fixed
 * kernel, run after every job, measures the speed of the phase the
 * job ran in, and the benchmark reports job times scaled to the speed
 * at which this kernel takes kProbeRefMs (see README.md).
 *
 * The kernel is heap churn straight through malloc/free: branchy,
 * pointer-heavy code, which is what msgsim's host time is made of.
 * Of the kernels tried (a pointer chase over 4 MiB, atomic adds, a
 * node-based map, malloc churn), its time followed the jobs' time
 * most closely through the host's slow phases.  It calls no msgsim
 * code and bypasses the operator new that hostprof interposes.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** Probe time that defines the reference host speed. */
constexpr double kProbeRefMs = 2.0;

class HostProbe
{
  public:
    HostProbe() : slots_(kSlots, nullptr) {}

    ~HostProbe()
    {
        for (void *p : slots_)
            std::free(p);
    }

    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Run the kernel once; its host time in ms. */
    double
    runMs()
    {
        const std::int64_t t0 = nowNs();
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        for (std::uint32_t i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            void *&slot = slots_[x & (kSlots - 1)];
            std::free(slot);
            slot = std::malloc(16 + (x >> 58) * 8);
        }
        return static_cast<double>(nowNs() - t0) / 1e6;
    }

  private:
    static constexpr std::uint32_t kSlots = 4096;
    static constexpr std::uint32_t kSteps = 70000;

    std::vector<void *> slots_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
