/**
 * @file
 * The benchmark's workloads: seeded generation of one rotation of
 * operations, and the code that runs one operation, checks its output
 * with msgsim's own oracles, and collects its statistics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/schedule.hh"
#include "core/counter.hh"
#include "traffic/engine.hh"

namespace perfbench
{

/**
 * Simulated statistics of one operation.  They are results, not
 * measurements: every one goes into the digest.
 */
enum Stat : int
{
    Packets,         ///< end-to-end packet count (see README)
    Schedules,       ///< schedules executed (1 per simulated run)
    Delivered,       ///< NetStats::delivered, acks included
    Injected,        ///< NetStats::injected
    Dropped,         ///< NetStats::dropped
    DeliveryRetries, ///< NetStats::deliveryRetries
    HwRetries,       ///< NetStats::hwRetries
    Events,          ///< Simulator::eventsDispatched
    Ticks,           ///< simulated time at the end of the run
    Instr,           ///< modeled instructions, all nodes and features
    MemWords,        ///< Memory::allocated, summed over nodes
    Polls,           ///< cmam poll entries
    FragsDelivered,  ///< traffic: fragments consumed
    TrafficOoo,      ///< traffic: out-of-order arrivals
    CqStalls,        ///< RdmaNic::cqOverflowStalls, summed
    OffloadHits,     ///< NicamNetwork::offloadHits
    OffloadMisses,   ///< NicamNetwork::offloadMisses
    DataPackets,     ///< RunResult::packets
    Retransmissions, ///< RunResult::retransmissions
    OooArrivals,     ///< RunResult::oooArrivals
    WireFrames,      ///< MuxStats::dataFrames
    WireBytes,       ///< MuxStats::framedBytes
    CrcRejects,      ///< WireRunResult::crcRejects
    WindowStalls,    ///< MuxStats::windowStalls
    Steps,           ///< CheckReport::stepsTotal
    Violations,      ///< CheckReport::violations
    NumStats
};

const char *statName(int s);

enum class OpKind : std::uint8_t
{
    Traffic,     ///< TrafficEngine::run on a fresh Stack
    Xfer,        ///< FiniteXfer
    Stream,      ///< StreamProtocol, polling mode
    StreamEvent, ///< StreamProtocol, event mode under drops
    RdmaStream,  ///< runRdmaStream, event mode
    NicamStream, ///< runNicamStream, event mode
    Wire,        ///< runWireWorkload with CRC corruption
    Explore,     ///< check::Explorer on one scenario
};

/** One generated input: everything an operation needs. */
struct OpSpec
{
    OpKind kind = OpKind::Traffic;
    const char *name = "";   ///< per-kind label: "incast_acked", ...
    msgsim::Substrate substrate = msgsim::Substrate::Cm5;
    std::uint64_t seed = 0;  ///< fill / fabric / walk seed
    std::uint32_t words = 0; ///< Xfer / streams: message size
    msgsim::TrafficSpec traffic;
    msgsim::check::ScenarioConfig scenario;
    msgsim::check::ExploreLimits limits;
};

/** How to break the first operation of a rotation (self-test). */
enum class Violate
{
    None,
    Oracle, ///< compare the output against a wrong expectation
    Fatal,  ///< hand the program an input it rejects with fatal()
};

struct OpOut
{
    bool ok = true;
    std::string error; ///< why the operation failed
    std::array<std::uint64_t, NumStats> stat{};
    msgsim::InstrCounter instr; ///< per feature x op class
    std::uint64_t allocs = 0;     ///< host heap allocations
    std::uint64_t allocBytes = 0; ///< host heap bytes allocated
};

/**
 * One rotation of @p workload's operations, generated from @p seed;
 * empty for an unknown name.  Every rotation of a run repeats it.
 */
std::vector<OpSpec> makeRotation(const std::string &workload,
                                 std::uint64_t seed);

/**
 * Run @p op, check its output, and collect its statistics.  A
 * panic/fatal inside msgsim comes back as a failed OpOut.
 */
OpOut runOp(const OpSpec &op, Violate violate);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
