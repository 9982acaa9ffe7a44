#include "workloads.hh"

#include <cmath>
#include <memory>

#include "check/explorer.hh"
#include "check/harness.hh"
#include "hostprof/hostprof.hh"
#include "model/traffic_model.hh"
#include "net/order.hh"
#include "nicam/nicam_stack.hh"
#include "protocols/finite_xfer.hh"
#include "protocols/stream.hh"
#include "rdmanet/rdma_stack.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "wire/wire_run.hh"

namespace perfbench
{

using namespace msgsim;

const char *
statName(int s)
{
    static const char *const names[NumStats] = {
        "packets",       "schedules",      "delivered",
        "injected",      "dropped",        "delivery_retries",
        "hw_retries",    "events",         "ticks",
        "instr",         "mem_words",      "polls",
        "frags_delivered", "traffic_ooo",  "cq_stalls",
        "offload_hits",  "offload_misses", "data_packets",
        "retransmissions", "ooo_arrivals", "wire_frames",
        "wire_bytes",    "crc_rejects",    "window_stalls",
        "steps",         "violations"};
    return names[s];
}

namespace
{

// ------------------------------------------------------------------
// Input generation.  Sizes are fixed per workload so that every seed
// does the same amount of work; the seed picks fabric randomness
// (jitter, routing, drops), payload contents and model-checker walks.
// ------------------------------------------------------------------

std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
    return splitMix64(s);
}

constexpr Substrate allSubstrates[] = {Substrate::Cm5, Substrate::Cr,
                                       Substrate::Rdma, Substrate::Nicam};

std::vector<OpSpec>
fabricRotation(std::uint64_t seed)
{
    // Many concurrent small-message flows at 32 nodes.  alltoall/seq
    // with routing jitter makes cm5 and nicam reorder; incast/acked
    // piles every flow onto node 0.  The receive FIFO stays
    // unbounded, as in msgsim-traffic: with a bound below 64 packets
    // the incast run never returns (see README).  32 messages per
    // node keeps stack construction a small share of each run.
    std::vector<OpSpec> ops;
    std::uint64_t salt = 0;
    for (const Substrate sub : allSubstrates) {
        for (int k = 0; k < 2; ++k) {
            OpSpec op;
            op.kind = OpKind::Traffic;
            op.substrate = sub;
            op.seed = derive(seed, ++salt);
            TrafficSpec &t = op.traffic;
            t.nodes = 32;
            t.messagesPerNode = 32;
            t.sizeWords = 4;
            t.seed = op.seed;
            if (k == 0) {
                op.name = "alltoall_seq";
                t.pattern = TrafficPattern::AllToAll;
                t.proto = TrafficProto::Seq;
                t.maxJitter = 8;
            } else {
                op.name = "incast_acked";
                t.pattern = TrafficPattern::Incast;
                t.proto = TrafficProto::Acked;
            }
            ops.push_back(op);
        }
    }
    return ops;
}

std::vector<OpSpec>
bulkRotation(std::uint64_t seed)
{
    // Few flows of large messages through the full protocols.
    // rdma runs in event mode because polling-mode runRdmaStream
    // never returns above 4 x cqCapacity words, and an rdma memory
    // region is at most 4096 words.
    const struct
    {
        OpKind kind;
        const char *name;
        Substrate sub;
        std::uint32_t words;
    } plan[] = {
        {OpKind::Xfer, "xfer", Substrate::Cr, 16384},
        {OpKind::Stream, "stream", Substrate::Cm5, 16384},
        {OpKind::StreamEvent, "stream_event", Substrate::Cm5, 4096},
        {OpKind::RdmaStream, "rdma_stream", Substrate::Rdma, 4096},
        {OpKind::NicamStream, "nicam_stream", Substrate::Nicam, 65536},
        {OpKind::Wire, "wire", Substrate::Cm5, 0},
    };
    std::vector<OpSpec> ops;
    std::uint64_t salt = 100;
    for (const auto &p : plan) {
        OpSpec op;
        op.kind = p.kind;
        op.name = p.name;
        op.substrate = p.sub;
        op.words = p.words;
        op.seed = derive(seed, ++salt);
        ops.push_back(op);
    }
    return ops;
}

std::vector<OpSpec>
exploreRotation(std::uint64_t seed)
{
    // Bounded DFS plus seeded walks.  Every schedule builds and
    // tears down a fresh harness, so construction dominates.
    const struct
    {
        const char *name; ///< "<scenario>@<substrate>"
        const char *protocol;
        Substrate sub;
        std::uint32_t nodes;
        std::uint32_t packets;
        int depth;
        int walks;
    } plan[] = {
        {"stream@cm5", "stream", Substrate::Cm5, 2, 3, 4, 256},
        {"finite_xfer@nicam", "finite_xfer", Substrate::Nicam, 2, 3, 12, 1024},
        {"incast@cm5", "incast", Substrate::Cm5, 3, 2, 6, 128},
        {"wire_window@nicam", "wire_window", Substrate::Nicam, 2, 3, 1, 128},
    };
    std::vector<OpSpec> ops;
    std::uint64_t salt = 200;
    for (const auto &p : plan) {
        OpSpec op;
        op.kind = OpKind::Explore;
        op.name = p.name;
        op.substrate = p.sub;
        op.seed = derive(seed, ++salt);
        op.scenario.protocol = p.protocol;
        op.scenario.substrate = p.sub;
        op.scenario.nodes = p.nodes;
        op.scenario.packets = p.packets;
        op.limits.depth = p.depth;
        op.limits.walks = p.walks;
        op.limits.budget = 100000;
        op.limits.seed = op.seed;
        ops.push_back(op);
    }
    return ops;
}

// ------------------------------------------------------------------
// Statistics collection.  Each reader is its own span so the traced
// run charges counter reads to the module that serves them.
// ------------------------------------------------------------------

void
readMachine(Machine &m, OpOut &out)
{
    Span s("machine.counters");
    for (NodeId i = 0; i < m.nodeCount(); ++i) {
        Node &nd = m.node(i);
        out.instr += nd.acct().counter();
        out.stat[MemWords] += nd.mem().allocated();
    }
    out.stat[Instr] = out.instr.total();
}

void
readNet(const Network &net, OpOut &out)
{
    Span s("net.counters");
    const NetStats &st = net.stats();
    out.stat[Delivered] += st.delivered;
    out.stat[Injected] += st.injected;
    out.stat[Dropped] += st.dropped;
    out.stat[DeliveryRetries] += st.deliveryRetries;
    out.stat[HwRetries] += st.hwRetries;
}

void
readSim(const Simulator &sim, OpOut &out)
{
    Span s("sim.counters");
    out.stat[Events] += sim.eventsDispatched();
    out.stat[Ticks] += sim.now();
}

void
readNicam(const NicamNetwork &net, OpOut &out)
{
    Span s("nicam.counters");
    out.stat[OffloadHits] += net.offloadHits();
    out.stat[OffloadMisses] += net.offloadMisses();
}

/** Counters every Stack-based operation reports. */
void
readStack(Stack &stack, OpOut &out, bool cmamPolls)
{
    readSim(stack.sim(), out);
    readNet(stack.network(), out);
    readMachine(stack.machine(), out);
    if (cmamPolls) {
        Span s("cmam.counters");
        for (NodeId i = 0; i < stack.machine().nodeCount(); ++i)
            out.stat[Polls] += stack.cmam(i).pollsHandled();
    }
    if (const auto *nicam =
            dynamic_cast<const NicamNetwork *>(&stack.network()))
        readNicam(*nicam, out);
}

void
readRun(const RunResult &r, OpOut &out)
{
    out.stat[DataPackets] += r.packets;
    out.stat[Retransmissions] += r.retransmissions;
    out.stat[OooArrivals] += r.oooArrivals;
}

/** Record the operation's first failure. */
void
fail(OpOut &out, std::string what)
{
    if (out.ok) {
        out.ok = false;
        out.error = std::move(what);
    }
}

/**
 * Check an oracle.  The message is a literal so that a passing check
 * allocates nothing: the allocation counters meter msgsim, not us.
 */
void
require(OpOut &out, bool cond, const char *what)
{
    if (!cond)
        fail(out, what);
}

/** lab W1's agreement test: exact up to floating-point rounding. */
bool
agree(double a, double b)
{
    const double scale = std::max(1.0, std::fabs(a) + std::fabs(b));
    return std::fabs(a - b) <= 1e-9 * scale;
}

// ------------------------------------------------------------------
// Operations.  `off` is 1 only when the self-test asks for a
// violated oracle, and `breakInput` only when it asks for a fatal;
// the self-test applies either to the first operation of a rotation
// (traffic, xfer or explore).
// ------------------------------------------------------------------

void
runTraffic(const OpSpec &op, bool breakInput, std::uint64_t off,
           OpOut &out)
{
    const char *tag = toString(op.substrate);
    StackConfig cfg = trafficStackConfig(op.traffic, op.substrate);
    std::unique_ptr<Stack> stack;
    {
        Span s("protocols.stack_build", tag);
        stack = std::make_unique<Stack>(cfg);
    }
    std::unique_ptr<TrafficEngine> engine;
    {
        Span s("traffic.engine_init", tag);
        engine = std::make_unique<TrafficEngine>(*stack);
    }
    TrafficSpec spec = op.traffic;
    if (breakInput)
        spec.nodes += 1; // the engine rejects a node-count mismatch
    TrafficResult res;
    {
        Span s("traffic.run", tag);
        res = engine->run(spec);
    }
    TrafficPrediction pred;
    {
        Span s("model.predict", tag);
        pred = predictTraffic(res.shape);
    }

    readStack(*stack, out, false);
    out.stat[Polls] += res.shape.polls;
    out.stat[FragsDelivered] +=
        res.shape.fragmentsDelivered + res.shape.acksDelivered;
    out.stat[TrafficOoo] += res.shape.ooo;
    out.stat[Packets] += out.stat[Delivered];
    out.stat[Schedules] += 1;

    // The W1 gate: measured per-feature bill == predicted, exactly.
    require(out, res.ok, "traffic run reported a bad payload");
    bool billOk = true;
    for (int f = 0; f < numPaperFeatures; ++f) {
        const CatCost &p = pred.feature[f];
        const CatCost &m = res.measured[f];
        billOk = billOk && agree(p.reg + static_cast<double>(off), m.reg) &&
                 agree(p.mem, m.mem) && agree(p.dev, m.dev);
    }
    require(out, billOk, "measured bill != predictTraffic(shape)");
    const std::uint64_t msgs =
        std::uint64_t{spec.nodes} * spec.messagesPerNode;
    require(out,
            res.shape.fragmentsSent == msgs * spec.fragmentsPerMessage(),
            "fragment count differs from the spec");
    if (spec.proto == TrafficProto::Acked)
        require(out, res.shape.acksSent == msgs,
                "ack count differs from the spec");

    {
        Span s("traffic.teardown", tag);
        engine.reset();
    }
    Span s("protocols.stack_teardown", tag);
    stack.reset();
}

/** Xfer, Stream, StreamEvent and Wire: one protocol on a fresh Stack. */
void
runProtocol(const OpSpec &op, bool breakInput, std::uint64_t off,
            OpOut &out)
{
    const char *tag = toString(op.substrate);
    StackConfig cfg;
    cfg.substrate = op.substrate;
    cfg.nodes = 4;
    cfg.seed = op.seed;
    if (op.kind == OpKind::Stream)
        cfg.order = swapAdjacentFactory(); // half the packets swap
    if (op.kind == OpKind::StreamEvent) {
        cfg.faults.dropRate = 0.01;
        cfg.faults.seed = op.seed;
    }
    std::unique_ptr<Stack> stack;
    {
        Span s("protocols.stack_build", tag);
        stack = std::make_unique<Stack>(cfg);
    }
    const std::uint32_t words = breakInput ? op.words + 1 : op.words;
    RunResult res;
    if (op.kind == OpKind::Xfer) {
        FiniteXfer proto(*stack);
        FiniteXferParams p;
        p.words = words;
        p.fillSeed = op.seed;
        Span s("protocols.xfer", tag);
        res = proto.run(p);
        require(out, res.packets + off == op.words / 4,
                "xfer sent a wrong number of data packets");
    } else if (op.kind == OpKind::Wire) {
        wire::WireWorkload w;
        w.streams = 8;
        w.framesPerStream = 48;
        w.corruptEvery = 7;
        w.fillSeed = op.seed;
        wire::WireRunResult wr;
        {
            Span s("wire.run", tag);
            wr = wire::runWireWorkload(*stack, w);
        }
        res = wr.run;
        out.stat[WireFrames] += wr.wire.dataFrames;
        out.stat[WireBytes] += wr.wire.framedBytes;
        out.stat[CrcRejects] += wr.crcRejects;
        out.stat[WindowStalls] += wr.wire.windowStalls;
        require(out, wr.crcRejects == wr.wire.corruptedTx + off,
                "wire CRC rejects != frames corrupted");
        require(out, wr.wire.corruptedTx > 0,
                "wire run corrupted no frame");
    } else {
        StreamProtocol proto(*stack);
        StreamParams p;
        p.words = words;
        p.groupAck = 4;
        p.fillSeed = op.seed;
        p.eventMode = op.kind == OpKind::StreamEvent;
        // The default bound of 64 retransmissions gives up on some
        // seeds at 1% drops, and a run that gives up never settles
        // (see README): recover instead.
        p.maxRetx = 100000;
        Span s(p.eventMode ? "protocols.stream_event"
                           : "protocols.stream",
               tag);
        res = proto.run(p);
    }
    readRun(res, out);
    readStack(*stack, out, true);
    out.stat[Packets] += out.stat[Delivered];
    out.stat[Schedules] += 1;
    require(out, res.dataOk, "payload check failed");
    if (op.kind == OpKind::StreamEvent)
        require(out, out.stat[Dropped] > 0 && res.retransmissions > 0,
                "the drop run never retransmitted");

    Span s("protocols.stack_teardown", tag);
    stack.reset();
}

void
runRdma(const OpSpec &op, OpOut &out)
{
    RdmaStackConfig cfg;
    std::unique_ptr<RdmaStack> stack;
    {
        Span s("rdmanet.stack_build", "rdma");
        stack = std::make_unique<RdmaStack>(cfg);
    }
    RdmaRunParams p;
    p.words = op.words;
    p.fillSeed = op.seed;
    p.eventMode = true;
    RunResult res;
    {
        Span s("rdmanet.stream", "rdma");
        res = runRdmaStream(*stack, p);
    }
    readRun(res, out);
    readSim(stack->sim(), out);
    readNet(stack->net(), out);
    readMachine(stack->machine(), out);
    {
        Span s("rdmanet.counters", "rdma");
        for (NodeId i = 0; i < stack->machine().nodeCount(); ++i)
            out.stat[CqStalls] += stack->nic(i).cqOverflowStalls();
    }
    out.stat[Packets] += out.stat[Delivered];
    out.stat[Schedules] += 1;
    require(out, res.dataOk, "payload check failed");

    Span s("rdmanet.stack_teardown", "rdma");
    stack.reset();
}

void
runNicam(const OpSpec &op, OpOut &out)
{
    NicamStackConfig cfg;
    std::unique_ptr<NicamStack> stack;
    {
        Span s("nicam.stack_build", "nicam");
        stack = std::make_unique<NicamStack>(cfg);
    }
    NicamRunParams p;
    p.words = op.words;
    p.fillSeed = op.seed;
    p.eventMode = true;
    RunResult res;
    {
        Span s("nicam.stream", "nicam");
        res = runNicamStream(*stack, p);
    }
    readRun(res, out);
    readSim(stack->sim(), out);
    readNet(stack->net(), out);
    readMachine(stack->machine(), out);
    readNicam(stack->net(), out);
    out.stat[Packets] += out.stat[Delivered];
    out.stat[Schedules] += 1;
    require(out, res.dataOk, "payload check failed");

    Span s("nicam.stack_teardown", "nicam");
    stack.reset();
}

/**
 * Drive a fresh harness along the default schedule (always the first
 * enabled choice), as Explorer::replay({}) does, so the benchmark can
 * read the stack's counters afterwards.
 */
void
driveDefault(const check::ScenarioConfig &sc, const char *tag, OpOut &out)
{
    std::unique_ptr<check::ScenarioHarness> h;
    {
        Span s("check.harness_make", tag);
        h = check::ScenarioHarness::make(sc);
    }
    {
        Span s("check.drive", tag);
        const unsigned kinds = sc.effectiveFaultKinds();
        int kicks = 0;
        h->start();
        h->progress();
        for (;;) {
            const auto enabled = h->controller().enabled(sc.faults, kinds);
            if (enabled.empty()) {
                if (h->done()) {
                    h->finish();
                    h->progress();
                    break;
                }
                require(out, ++kicks <= 64 && h->kick(),
                        "default schedule stalled");
                if (!out.ok)
                    break;
                h->progress();
                continue;
            }
            h->controller().apply(enabled.front());
            h->progress();
        }
        const std::string verdict = h->protocolFinal();
        if (!verdict.empty())
            fail(out, "default schedule: " + verdict);
    }
    readSim(h->stack().sim(), out);
    readNet(h->stack().network(), out);
    readMachine(h->stack().machine(), out);
    Span s("check.harness_teardown", tag);
    h.reset();
}

void
runExplore(const OpSpec &op, bool breakInput, std::uint64_t off,
           OpOut &out)
{
    check::ScenarioConfig sc = op.scenario;
    if (breakInput)
        sc.protocol = "no_such_protocol"; // make() rejects it
    driveDefault(sc, op.name, out);

    check::Explorer explorer(sc, op.limits);
    check::ScheduleResult replay;
    {
        Span s("check.replay", op.name);
        replay = explorer.replay({});
    }
    check::CheckReport rep;
    {
        Span s("check.explore", op.name);
        rep = explorer.run();
    }
    out.stat[Steps] += rep.stepsTotal;
    out.stat[Violations] += rep.violations;
    out.stat[Schedules] += rep.schedulesRun;
    out.stat[Packets] += rep.stepsTotal;
    if (replay.violated)
        fail(out, "default schedule violates " + replay.invariant);
    if (rep.violations != off)
        fail(out, "invariant violated: " + rep.counterexample.invariant +
                      " (" + rep.counterexample.detail + ")");
}

} // namespace

std::vector<OpSpec>
makeRotation(const std::string &workload, std::uint64_t seed)
{
    if (workload == "fabric")
        return fabricRotation(seed);
    if (workload == "bulk")
        return bulkRotation(seed);
    if (workload == "explore")
        return exploreRotation(seed);
    return {};
}

OpOut
runOp(const OpSpec &op, Violate violate)
{
    OpOut out;
    const bool breakInput = violate == Violate::Fatal;
    const std::uint64_t off = violate == Violate::Oracle ? 1 : 0;
    const std::uint64_t a0 = hostprof::globalAllocCount();
    const std::uint64_t b0 = hostprof::globalAllocBytes();
    try {
        switch (op.kind) {
          case OpKind::Traffic:
            runTraffic(op, breakInput, off, out);
            break;
          case OpKind::RdmaStream:
            runRdma(op, out);
            break;
          case OpKind::NicamStream:
            runNicam(op, out);
            break;
          case OpKind::Explore:
            runExplore(op, breakInput, off, out);
            break;
          default:
            runProtocol(op, breakInput, off, out);
            break;
        }
    } catch (const log_detail::SimError &err) {
        out.ok = false;
        out.error = std::string(err.isPanic ? "panic: " : "fatal: ") +
                    err.message;
    }
    out.allocs = hostprof::globalAllocCount() - a0;
    out.allocBytes = hostprof::globalAllocBytes() - b0;
    return out;
}

} // namespace perfbench
