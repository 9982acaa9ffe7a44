/**
 * @file
 * msgbench: the msgsim host-performance benchmark program.
 *
 *   msgbench --workload fabric|bulk|explore --seed N --seconds S
 *            --trace 0|1 [--spans-out FILE] [--rev REV]
 *            [--violate none|oracle|fatal]
 *
 * One process, one thread, one closed-loop client: each job starts
 * when the previous one ends.  A job is one full rotation over the
 * workload's operations, generated from the seed.  The run sets up
 * (input generation plus one warm-up job, several times), then
 * measures jobs for the given seconds.  With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it measures half the time
 * untraced and half traced, and reports the per-layer metrics.  The
 * last line of stdout is the result object.
 *
 * Every job is followed by the host-speed probe (probe.hh); reported
 * times are scaled to the probe's reference speed.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "probe.hh"
#include "sim/log.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

SpanLog *SpanLog::active = nullptr;

namespace
{

using msgsim::Feature;
using msgsim::numFeatures;
using msgsim::numOpClasses;
using msgsim::OpClass;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinJobs = 3;

// ------------------------------------------------------------------
// Small helpers: FNV-1a digest, percentiles, JSON strings.
// ------------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

// ------------------------------------------------------------------
// Running jobs.
// ------------------------------------------------------------------

/** Everything summed or listed over a set of jobs. */
struct Totals
{
    std::array<std::uint64_t, NumStats> stat{};
    msgsim::InstrCounter instr;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    std::vector<std::uint32_t> jobIds;
    std::vector<double> rawMs;   ///< wall-clock ms of each job
    std::vector<double> probeMs; ///< the probe run after each job

    template <typename T>
    void
    add(const T &o)
    {
        for (int s = 0; s < NumStats; ++s)
            stat[s] += o.stat[s];
        instr += o.instr;
        allocs += o.allocs;
        allocBytes += o.allocBytes;
    }

    double jobs() const { return static_cast<double>(rawMs.size()); }

    /**
     * Per job: reference speed over the phase's speed, the phase
     * being the median probe of the five jobs around it.
     */
    std::vector<double>
    speedFactors() const
    {
        std::vector<double> f(probeMs.size());
        for (std::size_t i = 0; i < f.size(); ++i) {
            const std::size_t lo = i < 2 ? 0 : i - 2;
            const std::size_t hi = std::min(i + 3, probeMs.size());
            f[i] = kProbeRefMs /
                   percentile({probeMs.begin() + lo, probeMs.begin() + hi},
                              0.5);
        }
        return f;
    }

    /** Job times at the reference host speed. */
    std::vector<double>
    scaledMs() const
    {
        std::vector<double> v = speedFactors();
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] *= rawMs[i];
        return v;
    }
};

class Runner
{
  public:
    Runner(std::vector<OpSpec> rotation, Violate violate)
        : rotation_(std::move(rotation)), violate_(violate)
    {
    }

    /** Run one job (one rotation), then the probe; fold into @p tot. */
    void
    job(Totals &tot)
    {
        const std::uint32_t id = nextJob_++;
        if (SpanLog::active)
            SpanLog::active->job = id;
        Fnv digest;
        Totals mine;
        std::vector<std::array<std::uint64_t, NumStats>> ops;
        const std::int64_t t0 = nowNs();
        {
            Span root("bench.job");
            for (std::size_t i = 0; i < rotation_.size(); ++i) {
                const OpSpec &op = rotation_[i];
                Span s("bench.op", op.name);
                const OpOut o =
                    runOp(op, i == 0 ? violate_ : Violate::None);
                digestOp(digest, op, o);
                mine.add(o);
                ops.push_back(o.stat);
                ++attempted_;
                if (!o.ok) {
                    ++failed_;
                    if (errors_.size() < 8)
                        errors_.insert(std::string(op.name) + ": " +
                                       o.error);
                }
            }
        }
        tot.rawMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        tot.probeMs.push_back(probe_.runMs());
        tot.jobIds.push_back(id);
        tot.add(mine);
        if (!haveRef_) {
            haveRef_ = true;
            refDigest_ = digest.h;
            ref_ = mine;
            refOps_ = std::move(ops);
        } else if (digest.h != refDigest_) {
            deterministic_ = false;
        }
    }

    /** Jobs for at least @p seconds (and at least kMinJobs). */
    void
    measure(double seconds, Totals &tot)
    {
        const std::int64_t end =
            nowNs() + static_cast<std::int64_t>(seconds * 1e9);
        while (nowNs() < end || tot.rawMs.size() < kMinJobs)
            job(tot);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool deterministic() const { return deterministic_; }
    std::uint64_t digest() const { return refDigest_; }
    const Totals &reference() const { return ref_; }
    const std::vector<OpSpec> &rotation() const { return rotation_; }
    const std::set<std::string> &errors() const { return errors_; }

    /** Per-operation statistics of the reference job. */
    const std::vector<std::array<std::uint64_t, NumStats>> &
    referenceOps() const
    {
        return refOps_;
    }

    /** Hash of the generated inputs. */
    std::uint64_t
    inputsDigest() const
    {
        Fnv d;
        for (const OpSpec &op : rotation_) {
            d.add(static_cast<std::uint64_t>(op.kind));
            d.add(static_cast<std::uint64_t>(op.substrate));
            d.add(op.seed);
            d.add(op.words);
        }
        return d.h;
    }

  private:
    static void
    digestOp(Fnv &d, const OpSpec &op, const OpOut &o)
    {
        d.add(static_cast<std::uint64_t>(op.kind));
        d.add(static_cast<std::uint64_t>(op.substrate));
        d.add(o.ok);
        for (const std::uint64_t v : o.stat)
            d.add(v);
        for (int f = 0; f < numFeatures; ++f)
            for (int c = 0; c < numOpClasses; ++c)
                d.add(o.instr.get(static_cast<Feature>(f),
                                  static_cast<OpClass>(c)));
    }

    std::vector<OpSpec> rotation_;
    Violate violate_;
    HostProbe probe_;
    std::uint32_t nextJob_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool haveRef_ = false;
    bool deterministic_ = true;
    std::uint64_t refDigest_ = 0;
    Totals ref_;
    std::vector<std::array<std::uint64_t, NumStats>> refOps_;
    std::set<std::string> errors_;
};

// ------------------------------------------------------------------
// Traced-run analysis.  Span times are scaled by their job's speed
// factor, like the job times.
// ------------------------------------------------------------------

struct SpanStats
{
    const std::vector<SpanRec> &spans;
    std::map<std::uint32_t, double> factor; ///< job id -> speed factor
    std::vector<std::int64_t> self; ///< raw ns: duration - children

    SpanStats(const std::vector<SpanRec> &s, const Totals &traced)
        : spans(s), self(s.size())
    {
        const std::vector<double> f = traced.speedFactors();
        for (std::size_t i = 0; i < f.size(); ++i)
            factor[traced.jobIds[i]] = f[i];
        for (std::size_t i = 0; i < s.size(); ++i)
            self[i] = s[i].end - s[i].start;
        for (const SpanRec &r : s)
            if (r.parent >= 0)
                self[static_cast<std::size_t>(r.parent)] -=
                    r.end - r.start;
    }

    /** Scaled ms of @p ns spent in job @p job. */
    double
    ms(std::uint32_t job, std::int64_t ns) const
    {
        return static_cast<double>(ns) / 1e6 * factor.at(job);
    }

    double
    ms(const SpanRec &r) const
    {
        return ms(r.job, r.end - r.start);
    }

    /** Median over jobs of the summed time of matching spans. */
    template <typename Pred>
    double
    jobMedianMs(Pred match) const
    {
        std::map<std::uint32_t, double> perJob;
        for (const SpanRec &r : spans)
            if (match(r))
                perJob[r.job] += ms(r);
        std::vector<double> v;
        for (const auto &[job, t] : perJob)
            v.push_back(t);
        return percentile(v, 0.5);
    }

    /** Median time of single spans named @p name. */
    double
    spanMedianMs(const char *name) const
    {
        std::vector<double> v;
        for (const SpanRec &r : spans)
            if (std::strcmp(r.name, name) == 0)
                v.push_back(ms(r));
        return percentile(v, 0.5);
    }

    /** Total seconds of spans named @p name (and tagged @p tag). */
    double
    totalSeconds(const char *name, const char *tag = nullptr) const
    {
        double t = 0;
        for (const SpanRec &r : spans)
            if (std::strcmp(r.name, name) == 0 &&
                (!tag || std::strcmp(r.tag, tag) == 0))
                t += ms(r);
        return t / 1e3;
    }
};

bool
endsWith(const char *s, const char *suffix)
{
    const std::size_t n = std::strlen(s), m = std::strlen(suffix);
    return n >= m && std::strcmp(s + n - m, suffix) == 0;
}

void
writeSpans(const std::string &path, const std::string &workload,
           std::uint64_t seed, const std::vector<SpanRec> &spans)
{
    std::ofstream f(path);
    f << "{\"workload\": " << jsonStr(workload) << ", \"seed\": " << seed
      << ", \"fields\": [\"name\", \"tag\", \"start_ns\", \"end_ns\", "
         "\"parent\", \"job\"],\n\"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRec &r = spans[i];
        f << (i ? ",\n" : "\n") << "[" << jsonStr(r.name) << ", "
          << jsonStr(r.tag) << ", " << r.start << ", " << r.end << ", "
          << r.parent << ", " << r.job << "]";
    }
    f << "]}\n";
    if (!f)
        std::fprintf(stderr, "msgbench: cannot write spans to %s\n",
                     path.c_str());
}

// ------------------------------------------------------------------
// Metrics and output.
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Peak resident memory of this program: VmHWM, which exec resets.
 * (getrusage's ru_maxrss keeps the peak of the process image that
 * exec replaced, e.g. the Python launcher.)
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
}

/**
 * Throughput is one job's work over the median job time: every job
 * repeats the same work, and the median resists the host's slow
 * phases better than the mean does.
 */
std::vector<Metric>
endToEnd(const Totals &t, double setupS)
{
    const std::vector<double> ms = t.scaledMs();
    const double medianS = percentile(ms, 0.5) / 1e3;
    return {
        {"packets_per_s", ratio(double(t.stat[Packets]) / t.jobs(), medianS),
         "1/s"},
        {"schedules_per_s",
         ratio(double(t.stat[Schedules]) / t.jobs(), medianS), "1/s"},
        {"run_ms_p50", percentile(ms, 0.5), "ms"},
        {"run_ms_p90", percentile(ms, 0.9), "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * The per-layer metrics.  Counts come from the untraced half @p u,
 * times from the traced half @p traced and its spans.
 */
std::vector<Metric>
perLayer(const Totals &u, const Totals &traced, const SpanStats &sp,
         const Runner &runner)
{
    const double pk = double(u.stat[Packets]);
    const double dl = double(u.stat[Delivered]);
    auto stat = [&u](Stat s) { return double(u.stat[s]); };
    // The span that is each operation's main call into msgsim.
    static const char *const runSpans[] = {
        "traffic.run",    "protocols.xfer", "protocols.stream",
        "protocols.stream_event", "rdmanet.stream", "nicam.stream",
        "wire.run",       "check.explore"};
    // Tags are a substrate name, or "<scenario>@<substrate>".
    auto runOn = [](const char *sub) {
        return [sub](const SpanRec &r) {
            for (const char *n : runSpans)
                if (std::strcmp(r.name, n) == 0) {
                    const char *at = std::strchr(r.tag, '@');
                    return std::strcmp(at ? at + 1 : r.tag, sub) == 0;
                }
            return false;
        };
    };
    std::vector<Metric> m = {
        {"sim.events_per_packet", ratio(stat(Events), dl), "count"},
        {"hostprof.allocs_per_packet", ratio(double(u.allocs), pk), "count"},
        {"hostprof.alloc_bytes_per_packet",
         ratio(double(u.allocBytes), pk), "B"},
        {"hostprof.allocs_per_schedule",
         ratio(double(u.allocs), stat(Schedules)), "count"},
        {"cm5net.run_ms_p50", sp.jobMedianMs(runOn("cm5")), "ms"},
        {"crnet.run_ms_p50", sp.jobMedianMs(runOn("cr")), "ms"},
        {"rdmanet.run_ms_p50", sp.jobMedianMs(runOn("rdma")), "ms"},
        {"nicam.run_ms_p50", sp.jobMedianMs(runOn("nicam")), "ms"},
        {"net.delivery_retries_per_packet",
         ratio(stat(DeliveryRetries), dl), "count"},
        {"rdmanet.cq_overflow_stalls_per_packet", ratio(stat(CqStalls), dl),
         "count"},
        {"nicam.offload_hit_frac",
         ratio(stat(OffloadHits), stat(OffloadHits) + stat(OffloadMisses)),
         "frac"},
        {"cmam.polls_per_packet", ratio(stat(Polls), dl), "count"},
        {"traffic.ooo_frac", ratio(stat(TrafficOoo), stat(FragsDelivered)),
         "frac"},
        {"protocols.stack_build_ms",
         sp.jobMedianMs([](const SpanRec &r) {
             return endsWith(r.name, ".stack_build");
         }),
         "ms"},
        {"traffic.engine_init_ms",
         sp.jobMedianMs([](const SpanRec &r) {
             return std::strcmp(r.name, "traffic.engine_init") == 0;
         }),
         "ms"},
        {"protocols.xfer_ms", sp.spanMedianMs("protocols.xfer"), "ms"},
        {"protocols.stream_ms", sp.spanMedianMs("protocols.stream"), "ms"},
        {"protocols.stream_event_ms",
         sp.spanMedianMs("protocols.stream_event"), "ms"},
        {"rdmanet.stream_ms", sp.spanMedianMs("rdmanet.stream"), "ms"},
        {"nicam.stream_ms", sp.spanMedianMs("nicam.stream"), "ms"},
        {"protocols.retransmissions_per_packet",
         ratio(stat(Retransmissions), dl), "count"},
        {"protocols.ooo_frac", ratio(stat(OooArrivals), stat(DataPackets)),
         "frac"},
        {"machine.mem_words_per_job", ratio(stat(MemWords), u.jobs()),
         "words"},
        {"wire.run_ms", sp.spanMedianMs("wire.run"), "ms"},
        {"wire.framed_bytes_per_s",
         ratio(double(traced.stat[WireBytes]), sp.totalSeconds("wire.run")),
         "B/s"},
        {"wire.crc_rejects", ratio(stat(CrcRejects), u.jobs()), "count"},
        {"wire.window_stalls_per_frame",
         ratio(stat(WindowStalls), stat(WireFrames)), "count"},
        {"check.harness_make_us",
         1e3 * sp.spanMedianMs("check.harness_make"), "us"},
        {"check.replay_us", 1e3 * sp.spanMedianMs("check.replay"), "us"},
        {"check.steps_per_schedule",
         u.stat[Steps] ? ratio(stat(Steps), stat(Schedules)) : 0, "count"},
    };
    // Per-scenario exploration rate over the traced jobs.
    static const char *const scenarios[] = {"stream", "finite_xfer",
                                            "incast", "wire_window"};
    const auto &rotation = runner.rotation();
    for (const char *sc : scenarios) {
        double schedules = 0, seconds = 0;
        for (std::size_t i = 0; i < rotation.size(); ++i) {
            const OpSpec &op = rotation[i];
            if (op.kind != OpKind::Explore || op.scenario.protocol != sc)
                continue;
            schedules += double(runner.referenceOps()[i][Schedules]) *
                         traced.jobs();
            seconds += sp.totalSeconds("check.explore", op.name);
        }
        m.push_back({std::string("check.") + sc + ".schedules_per_s",
                     ratio(schedules, seconds), "1/s"});
    }
    m.push_back({"machine.sim_instr_per_packet", ratio(stat(Instr), dl),
                 "count"});
    m.push_back({"trace.overhead_frac",
                 percentile(traced.scaledMs(), 0.5) /
                         percentile(u.scaledMs(), 0.5) -
                     1,
                 "frac"});
    return m;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const auto c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

void
printFingerprint(const std::string &rev)
{
    std::printf("perfbench fingerprint {\"cpu\": %s, \"nproc\": %ld, "
                "\"compiler\": %s, \"flags\": %s, \"build_type\": %s, "
                "\"rev\": %s}\n",
                jsonStr(cpuModel()).c_str(),
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonStr("gcc " __VERSION__).c_str(),
                jsonStr(PERFBENCH_CXX_FLAGS).c_str(),
                jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                jsonStr(rev).c_str());
}

/** The digest line: the hashes plus a readable summary of one job. */
void
printDigest(const std::string &workload, std::uint64_t seed,
            const Runner &r)
{
    const Totals &t = r.reference();
    std::printf("perfbench digest {\"workload\": %s, \"seed\": %" PRIu64
                ", \"inputs\": \"%016" PRIx64 "\", \"hash\": \"%016" PRIx64
                "\", \"instr\": {",
                jsonStr(workload).c_str(), seed, r.inputsDigest(),
                r.digest());
    for (int f = 0; f < numFeatures; ++f)
        std::printf("%s%s: %" PRIu64, f ? ", " : "",
                    jsonStr(msgsim::toString(static_cast<Feature>(f)))
                        .c_str(),
                    t.instr.featureTotal(static_cast<Feature>(f)));
    std::printf("}");
    for (int s = 0; s < NumStats; ++s)
        std::printf(", %s: %" PRIu64, jsonStr(statName(s)).c_str(),
                    t.stat[s]);
    std::printf("}\n");
}

/** Raw wall-clock figures and the host speed, for the record. */
void
printHost(const Totals &t)
{
    std::printf("perfbench host {\"jobs\": %zu, \"raw_run_ms_p50\": %.4f, "
                "\"raw_run_ms_p90\": %.4f, \"probe_ms_p50\": %.4f, "
                "\"probe_ref_ms\": %.4f}\n",
                t.rawMs.size(), percentile(t.rawMs, 0.5),
                percentile(t.rawMs, 0.9), percentile(t.probeMs, 0.5),
                kProbeRefMs);
}

void
printResult(bool correct, const Runner &r,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", r.attempted(), r.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                    i ? ", " : "", jsonStr(metrics[i].name).c_str(),
                    metrics[i].value, jsonStr(metrics[i].unit).c_str());
    std::printf("}}\n");
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "msgbench: %s\nusage: msgbench --workload fabric|bulk|"
                 "explore --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE] [--rev REV] "
                 "[--violate none|oracle|fatal]\n",
                 msg);
    return 2;
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    if (!s || !*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, spansOut, rev = "unknown", violateName = "none";
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool haveSeed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            haveSeed = parseUint(v, seed);
        else if (a == "--seconds") {
            if (!parseUint(v, seconds) || seconds == 0 || seconds > 3600)
                return usage("--seconds must be 1..3600");
        } else if (a == "--trace") {
            if (!parseUint(v, trace) || trace > 1)
                return usage("--trace must be 0 or 1");
        } else if (a == "--spans-out")
            spansOut = v;
        else if (a == "--rev")
            rev = v;
        else if (a == "--violate")
            violateName = v;
        else
            return usage(("unknown flag " + a).c_str());
    }
    if (!haveSeed)
        return usage("--seed must be a non-negative integer");
    if (seconds == 0 || trace > 1)
        return usage("--seconds and --trace are required");
    if (makeRotation(workload, seed).empty())
        return usage(("unknown workload '" + workload + "'").c_str());
    Violate violate = Violate::None;
    if (violateName == "oracle")
        violate = Violate::Oracle;
    else if (violateName == "fatal")
        violate = Violate::Fatal;
    else if (violateName != "none")
        return usage("--violate must be none, oracle or fatal");

    // Fixed glibc heap thresholds.  By default glibc raises them as
    // large blocks are freed, so explore's speed depends on its
    // allocation history: with some seeds its jobs drop from ~55 to
    // ~42 ms after about 70 jobs, with others never within a run.
    // Fixing them (at the values glibc would adapt to) puts every run
    // in the same allocator state from the first job.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    // A panic/fatal inside msgsim is a failed operation, not an exit.
    msgsim::log_detail::throwOnError = true;

    printFingerprint(rev);

    // Set-up: generate the inputs and run one warm-up job, several
    // times; the first warm-up job is the digest reference.
    std::unique_ptr<Runner> runner;
    Totals warm;
    std::vector<double> setupRawS;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const std::int64_t t0 = nowNs();
        std::vector<OpSpec> rotation = makeRotation(workload, seed);
        if (!runner)
            runner = std::make_unique<Runner>(std::move(rotation), violate);
        runner->job(warm);
        setupRawS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    std::vector<double> setupS = warm.speedFactors();
    for (std::size_t k = 0; k < setupS.size(); ++k)
        setupS[k] *= setupRawS[k];

    Totals untraced, traced;
    SpanLog log;
    const double total = static_cast<double>(seconds);
    if (trace == 0) {
        runner->measure(total, untraced);
    } else {
        runner->measure(total / 2, untraced);
        log.spans.reserve(1u << 16);
        SpanLog::active = &log;
        runner->measure(total / 2, traced);
        SpanLog::active = nullptr;
    }

    printDigest(workload, seed, *runner);
    std::printf("perfbench ops failed/attempted = %" PRIu64 "/%" PRIu64
                "\n",
                runner->failed(), runner->attempted());
    for (const std::string &e : runner->errors())
        std::printf("perfbench failure: %s\n", e.c_str());
    if (!runner->deterministic())
        std::printf("perfbench failure: a job's digest differs from the "
                    "first job's\n");
    printHost(untraced);

    bool selfTimeOk = true;
    std::vector<Metric> metrics;
    if (trace == 0) {
        metrics = endToEnd(untraced, percentile(setupS, 0.5));
    } else {
        const SpanStats sp(log.spans, traced);
        // Self time per layer, and the check that the self times of
        // all spans add up to the jobs' time.
        std::map<std::string, double> layerSelf;
        std::int64_t selfSum = 0, rootSum = 0;
        for (std::size_t i = 0; i < log.spans.size(); ++i) {
            const SpanRec &r = log.spans[i];
            layerSelf[spanLayer(r.name)] += sp.ms(r.job, sp.self[i]);
            selfSum += sp.self[i];
            if (r.parent < 0)
                rootSum += r.end - r.start;
        }
        selfTimeOk = selfSum == rootSum;
        std::printf("perfbench self_ms_per_job {");
        const char *sep = "";
        for (const auto &[layer, ms] : layerSelf) {
            std::printf("%s%s: %.4f", sep, jsonStr(layer).c_str(),
                        ms / traced.jobs());
            sep = ", ";
        }
        std::printf("}\nperfbench self-time sum %s job time (%zu spans, "
                    "%zu traced jobs)\n",
                    selfTimeOk ? "equals" : "DIFFERS FROM",
                    log.spans.size(), traced.rawMs.size());
        if (!spansOut.empty())
            writeSpans(spansOut, workload, seed, log.spans);
        metrics = perLayer(untraced, traced, sp, *runner);
    }

    const bool correct = runner->failed() == 0 &&
                         runner->deterministic() && selfTimeOk;
    printResult(correct, *runner, metrics);
    return 0;
}
