#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cluster/cluster.hh"
#include "fault/campaign.hh"
#include "fault/cluster_campaign.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "pecos/sng.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

namespace lightpc::perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailStat
tailPercentile(std::vector<double> samples, std::size_t beyond)
{
    TailStat tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n <= beyond) {
        tail.value = samples.back();
        return tail;
    }
    const std::size_t rank = n - beyond - 1;
    tail.value = samples[rank];
    tail.percentile = 100.0 * static_cast<double>(rank + 1)
        / static_cast<double>(n);
    tail.valid = true;
    return tail;
}

double
selfShare(double total, const std::vector<double> &children)
{
    if (total <= 0.0)
        return 0.0;
    return 1.0 - std::accumulate(children.begin(), children.end(), 0.0)
        / total;
}

mem::AccessResult
TimingPort::access(const mem::MemRequest &req, Tick when)
{
    ++accesses;
    const Clock::time_point start = Clock::now();
    const mem::AccessResult result = psm->access(req, when);
    hostNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start).count());
    return result;
}

namespace
{

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

} // namespace

void
foldRunResult(sim::Fnv64 &d, const platform::RunResult &r)
{
    for (const char c : r.workload + "/" + r.platform)
        d.mix(static_cast<unsigned char>(c));
    d.mix(r.elapsed);
    d.mix(r.instructions);
    d.mix(r.cycles);
    d.mix(bitsOf(r.ipc));
    d.mix(bitsOf(r.watts));
    d.mix(bitsOf(r.joules));
    d.mix(bitsOf(r.memReadLatencyNs));
    d.mix(bitsOf(r.loadHitRate));
    d.mix(bitsOf(r.storeHitRate));
    d.mix(r.memReads);
    d.mix(r.memWrites);
    const psm::PsmStats &p = r.psmStats;
    for (const std::uint64_t v :
         {p.reads, p.writes, p.rowBufferReadHits, p.rowBufferWriteHits,
          p.reconstructedReads, p.blockedReads, p.readStallTicks,
          p.wearMoves, p.flushes, p.lastFlushQuiescentAt, p.mceCount,
          p.correctedReads, p.symbolCorrections, p.resets,
          p.rasCheckedReads, p.sdcEvents, p.parityRewrites,
          p.retiredLines, p.spareExhausted, p.scrubbedLines,
          p.scrubRepairs, p.scrubDeferrals, p.uncorrectableReads})
        d.mix(v);
    const cpu::CoreStats &c = r.coreTotals;
    for (const std::uint64_t v :
         {c.instructions, c.loads, c.stores, c.busyTicks,
          c.loadStallTicks, c.storeStallTicks, c.fetchStallTicks})
        d.mix(v);
}

void
Outcome::fail(const std::string &note)
{
    ++failed;
    failures.push_back(note);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "table2_machine", "powercut_campaign", "kv_cluster_storm"};
    return names;
}

namespace
{

// ---------------------------------------------------------------------
// table2_machine: all 17 Table II specs on LightPC and LightPC-B.
// ---------------------------------------------------------------------

constexpr platform::PlatformKind table2Platforms[] = {
    platform::PlatformKind::LightPC, platform::PlatformKind::LightPCB};

platform::SystemConfig
table2Config(platform::PlatformKind kind, std::uint64_t seed,
             const Sizes &sizes, mem::MemoryPort *port)
{
    platform::SystemConfig cfg;
    cfg.kind = kind;
    cfg.scaleDivisor = sizes.table2Divisor;
    cfg.seed = seed;
    cfg.overridePort = port;
    return cfg;
}

/** The streams System::run makes for @p spec on a default machine. */
std::vector<std::unique_ptr<workload::SyntheticStream>>
table2Streams(const workload::WorkloadSpec &spec, std::uint64_t seed,
              const Sizes &sizes)
{
    workload::SyntheticConfig wc;
    wc.scaleDivisor = sizes.table2Divisor;
    wc.seed = seed;
    return workload::makeStreams(spec, wc, platform::SystemConfig().cores,
                                 platform::System::workloadBase);
}

/** Instructions the generator promises for @p spec. */
std::uint64_t
expectedInstructions(const workload::WorkloadSpec &spec,
                     std::uint64_t seed, const Sizes &sizes)
{
    std::uint64_t total = 0;
    for (const auto &s : table2Streams(spec, seed, sizes))
        total += s->totalInstructions();
    return total;
}

/** One table2_machine op's correctness checks. */
void
checkTable2Run(Batch &batch, const platform::RunResult &r,
               std::uint64_t expected)
{
    const std::string op = r.workload + "/" + r.platform;
    if (r.instructions != expected || r.instructions == 0)
        batch.failures.push_back(
            op + ": retired " + std::to_string(r.instructions)
            + " instructions, generator produced "
            + std::to_string(expected));
    if (r.psmStats.sdcEvents || r.psmStats.uncorrectableReads)
        batch.failures.push_back(op + ": silent or uncorrectable "
                                 "corruption on a fault-free run");
}

/** What the traced table2_machine pass adds up over its machines. */
struct Table2Trace
{
    std::uint64_t instructions = 0;
    std::uint64_t psmAccesses = 0;
    double psmHostS = 0.0;
    std::uint64_t l1Misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t rowBufferHits = 0;
    std::uint64_t reconstructedReads = 0;
    std::uint64_t blockedReads = 0;
};

/**
 * The table2_machine batch. Each machine is built just before its run
 * and freed after it, as a caller running one spec at a time would;
 * set-up time is the sum of the constructions. With @p trace set,
 * every machine's cores use a TimingPort and the batch adds its
 * counters to @p trace.
 */
Batch
table2Batch(std::uint64_t seed, const Sizes &sizes,
            Table2Trace *trace = nullptr)
{
    Batch batch;
    sim::Fnv64 digest;
    for (const auto &spec : workload::tableTwo()) {
        for (const platform::PlatformKind kind : table2Platforms) {
            const Clock::time_point setup = Clock::now();
            std::optional<TimingPort> port;
            if (trace)
                port.emplace();
            platform::System system(
                table2Config(kind, seed, sizes, port ? &*port : nullptr));
            if (port)
                port->bind(system.psm());
            batch.setupS += secondsSince(setup);

            const Clock::time_point op = Clock::now();
            const platform::RunResult r = system.run(spec);
            const double s = secondsSince(op);
            batch.opMs.push_back(1e3 * s);
            batch.wallS += s;

            foldRunResult(digest, r);
            checkTable2Run(batch, r, expectedInstructions(spec, seed, sizes));
            batch.work += r.instructions;
            if (trace) {
                trace->instructions += r.instructions;
                trace->psmAccesses += port->accesses;
                trace->psmHostS += 1e-9 * static_cast<double>(port->hostNs);
                for (std::uint32_t c = 0; c < system.coreCount(); ++c) {
                    const cache::L1Stats &l1 =
                        system.core(c).dcache().stats();
                    trace->l1Misses += l1.loadMisses + l1.storeMisses;
                    trace->writebacks += l1.writebacks;
                }
                trace->rowBufferHits += r.psmStats.rowBufferReadHits
                    + r.psmStats.rowBufferWriteHits;
                trace->reconstructedReads += r.psmStats.reconstructedReads;
                trace->blockedReads += r.psmStats.blockedReads;
            }
        }
    }
    batch.digest = digest.h;
    return batch;
}

/**
 * Drain every table2_machine stream with no core attached. @return
 * host seconds; @p instructions receives the instructions produced.
 */
double
drainGenerators(std::uint64_t seed, const Sizes &sizes,
                std::uint64_t &instructions)
{
    // Clock reads cost more than one next(), so each stream is timed
    // as a whole: one span per drained stream.
    instructions = 0;
    double seconds = 0.0;
    for (const auto &spec : workload::tableTwo()) {
        for (std::size_t p = 0; p < std::size(table2Platforms); ++p) {
            auto streams = table2Streams(spec, seed, sizes);
            cpu::Instr instr;
            for (auto &stream : streams) {
                std::uint64_t n = 0;
                const Clock::time_point start = Clock::now();
                while (stream->next(instr))
                    ++n;
                seconds += secondsSince(start);
                instructions += n;
            }
        }
    }
    return seconds;
}

// ---------------------------------------------------------------------
// powercut_campaign: the five power-cut campaigns.
// ---------------------------------------------------------------------

struct CampaignRunner
{
    const char *key;
    fault::CampaignResult (*run)(const fault::CampaignConfig &);
};

constexpr CampaignRunner campaignRunners[] = {
    {"sng", fault::runSngCampaign},
    {"oplog", fault::runOpLogCampaign},
    {"syspc", fault::runSysPcCampaign},
    {"scheckpc", fault::runSCheckPcCampaign},
    {"acheckpc", fault::runACheckPcCampaign},
};

/**
 * In the timed batch each mode's cuts run as this many seeded
 * campaigns, so a batch has enough operations for a per-batch tail (at
 * least ten beyond it). The thread-scaling passes run each mode as one
 * campaign of all its cuts instead, as the program's users do.
 */
constexpr std::uint64_t campaignsPerMode = 10;

struct CampaignTimes
{
    /** Host seconds per mode, in campaignRunners order. */
    double modeS[std::size(campaignRunners)] = {};
    std::uint64_t dropped = 0;
    std::uint64_t torn = 0;
};

Batch
powercutBatch(std::uint64_t seed, unsigned threads, const Sizes &sizes,
              CampaignTimes *times = nullptr,
              std::uint64_t campaigns = campaignsPerMode)
{
    Batch batch;
    const std::uint64_t cuts =
        std::max<std::uint64_t>(1, sizes.campaignCuts / campaigns);

    auto config = [&](std::uint64_t j, std::uint64_t n) {
        fault::CampaignConfig cfg;
        cfg.cuts = n;
        cfg.seed = Rng::streamSeed(seed, j);
        cfg.threads = threads;
        return cfg;
    };

    // Set-up: a short warm-up campaign through every mode, so code
    // and allocator are hot before the first timed campaign.
    const Clock::time_point setup = Clock::now();
    for (const CampaignRunner &r : campaignRunners)
        r.run(config(campaignsPerMode, 8));
    batch.setupS = secondsSince(setup);

    sim::Fnv64 digest;
    const Clock::time_point start = Clock::now();
    for (std::size_t m = 0; m < std::size(campaignRunners); ++m) {
        for (std::uint64_t j = 0; j < campaigns; ++j) {
            const Clock::time_point op = Clock::now();
            const fault::CampaignResult r =
                campaignRunners[m].run(config(j, cuts));
            const double s = secondsSince(op);
            batch.opMs.push_back(1e3 * s);
            digest.mix(r.digest);
            batch.work += r.cuts;
            if (times) {
                times->modeS[m] += s;
                times->dropped += r.droppedWrites;
                times->torn += r.tornWrites;
            }
            if (r.cuts != cuts)
                batch.failures.push_back(
                    r.mode + ": ran " + std::to_string(r.cuts)
                    + " of " + std::to_string(cuts) + " cuts");
            if (r.violations)
                batch.failures.push_back(
                    r.mode + ": " + std::to_string(r.violations)
                    + " invariant violations, first: "
                    + (r.violationNotes.empty()
                           ? std::string("?")
                           : r.violationNotes.front()));
        }
    }
    batch.wallS = secondsSince(start);
    batch.digest = digest.h;
    return batch;
}

// ---------------------------------------------------------------------
// kv_cluster_storm: replicated-KV trials under cut storms.
// ---------------------------------------------------------------------

/**
 * The storm trials: replicas {3, 5} x intensity {2, 3} x {SnG,
 * SnG-OpLog}, plus SysPC at intensity 3, each cell with
 * clusterSeedsPerCell paired seeds. SysPC at intensity 2 is left out:
 * about half of all seeds hit an acked-then-lost PUT there, and a
 * benchmark workload must not fail.
 */
std::vector<cluster::ClusterConfig>
stormTrials(std::uint64_t seed, const Sizes &sizes)
{
    fault::ClusterCampaignConfig grid;
    grid.seed = seed;
    grid.seedsPerCell = sizes.clusterSeedsPerCell;
    grid.replicaCounts = {3, 5};
    std::vector<cluster::ClusterConfig> trials;
    auto add = [&](std::vector<std::uint32_t> intensities,
                   std::vector<net::PersistMode> modes) {
        grid.intensities = std::move(intensities);
        grid.modes = std::move(modes);
        for (std::uint64_t i = 0; i < fault::clusterCampaignTrials(grid);
             ++i)
            trials.push_back(fault::clusterTrialConfig(grid, i));
    };
    add({2, 3}, {net::PersistMode::SnG, net::PersistMode::OpLog});
    add({3}, {net::PersistMode::SysPc});
    return trials;
}

struct TrialOut
{
    double ms = 0.0;
    cluster::ClusterResult result;
};

std::string
clusterBreach(const cluster::ClusterResult &r)
{
    const std::uint64_t counters[] = {
        r.lostAckedPuts,   r.splitBrainEpochs, r.divergentCommits,
        r.lostUpdates,     r.orderInversions,  r.phantomReads,
        r.valueDivergences};
    const std::uint64_t breaches =
        std::accumulate(std::begin(counters), std::end(counters),
                        std::uint64_t(0));
    if (!breaches && r.violations.empty())
        return {};
    return r.modeName + " x" + std::to_string(r.replicas) + ": "
        + std::to_string(breaches) + " invariant breaches"
        + (r.violations.empty() ? std::string()
                                : ", first: " + r.violations.front());
}

Batch
stormBatch(std::uint64_t seed, unsigned threads, const Sizes &sizes,
           std::vector<TrialOut> *trials_out = nullptr)
{
    Batch batch;

    // Set-up: derive every trial's configuration, then run the first
    // trial once so allocator and code are warm.
    const Clock::time_point setup = Clock::now();
    const std::vector<cluster::ClusterConfig> configs =
        stormTrials(seed, sizes);
    const std::uint64_t n = configs.size();
    cluster::runCluster(configs.front());
    batch.setupS = secondsSince(setup);

    const sim::ParallelExecutor pool(threads);
    const Clock::time_point start = Clock::now();
    std::vector<TrialOut> trials =
        pool.map<TrialOut>(n, [&configs](std::uint64_t i) {
            const Clock::time_point op = Clock::now();
            TrialOut out;
            out.result = cluster::runCluster(configs[i]);
            out.ms = 1e3 * secondsSince(op);
            return out;
        });
    batch.wallS = secondsSince(start);

    sim::Fnv64 digest;
    for (const TrialOut &t : trials) {
        batch.opMs.push_back(t.ms);
        digest.mix(t.result.digest);
        batch.work += t.result.ackedPuts;
        const std::string breach = clusterBreach(t.result);
        if (!breach.empty())
            batch.failures.push_back(breach);
    }
    batch.digest = digest.h;
    if (trials_out)
        *trials_out = std::move(trials);
    return batch;
}

} // namespace

Batch
runBatch(const std::string &workload, std::uint64_t seed,
         unsigned threads, const Sizes &sizes)
{
    if (workload == "table2_machine")
        return table2Batch(seed, sizes);
    if (workload == "powercut_campaign")
        return powercutBatch(seed, threads, sizes);
    if (workload == "kv_cluster_storm")
        return stormBatch(seed, threads, sizes);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

namespace
{

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
addCheck(Outcome &out, const Batch &batch, const std::string &what)
{
    for (const std::string &f : batch.failures)
        out.fail(what + ": " + f);
}

void
expectDigest(Outcome &out, const std::string &what, std::uint64_t got,
             std::uint64_t want)
{
    if (got != want)
        out.fail(what + ": digest " + hex(got) + " != " + hex(want));
}

} // namespace

Outcome
measure(const std::string &workload, std::uint64_t seed, double seconds,
        const Sizes &sizes)
{
    // Repeat the fixed batch until the time is spent, at least three
    // times. Other tenants of a shared host slow the run down in phases
    // of tens of seconds and never speed it up, so each op's time is
    // its fastest repetition (every batch runs the same ops in the same
    // order), and wall_s is the batch made of those: the sum of the
    // op times, since a batch runs its ops one after another. Set-up
    // time is the median over batches.
    Outcome out;
    std::vector<Batch> batches;
    const Clock::time_point start = Clock::now();
    do {
        batches.push_back(runBatch(workload, seed, 1, sizes));
    } while (batches.size() < 3 || secondsSince(start) < seconds);

    std::vector<double> setup, wall;
    std::vector<double> op_ms = batches.front().opMs;
    for (const Batch &b : batches) {
        out.attempted += b.opMs.size();
        addCheck(out, b, workload);
        expectDigest(out, workload + " repeated batch", b.digest,
                     batches.front().digest);
        setup.push_back(b.setupS);
        wall.push_back(b.wallS);
        for (std::size_t i = 0; i < op_ms.size(); ++i)
            op_ms[i] = std::min(op_ms[i], b.opMs[i]);
    }
    out.digest = batches.front().digest;

    const TailStat tail = tailPercentile(op_ms);
    if (!tail.valid)
        out.fail(workload + ": too few ops for a tail");
    const double wall_s =
        1e-3 * std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
    const double op_p50 = median(op_ms);
    out.metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", wall_s, "s"},
        {"op_ms_p50", op_p50, "ms"},
        {"op_ms_tail", tail.value, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    const Batch &first = batches.front();
    const double ops = static_cast<double>(first.opMs.size());
    const double work = static_cast<double>(first.work);
    out.report = {
        {"batches", static_cast<double>(batches.size()), "count"},
        {"fastest_batch_s", *std::min_element(wall.begin(), wall.end()),
         "s"},
        {"ops_per_batch", ops, "count"},
        {"op_ms_tail_percentile", tail.percentile, "%"},
        {"ops_per_s", ops / wall_s, "1/s"},
    };
    if (workload == "table2_machine") {
        out.report.push_back(
            {"sim_minstr_per_s", 1e-6 * work / wall_s, "Minstr/s"});
    } else if (workload == "powercut_campaign") {
        out.report.push_back({"trials_per_s", work / wall_s, "1/s"});
    } else {
        out.report.insert(
            out.report.end(),
            {{"trials_per_s", ops / wall_s, "1/s"},
             {"host_us_per_acked_put", 1e6 * wall_s / work, "us"},
             {"trial_ms_p50", op_p50, "ms"},
             {"trial_ms_tail", tail.value, "ms"}});
    }
    return out;
}

namespace
{

/** Mean host time of the calls timed through one accumulator. */
struct NsAccumulator
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    /** Run @p fn, adding its host time; returns what @p fn returns. */
    template <typename Fn>
    decltype(auto)
    time(Fn &&fn)
    {
        struct Span
        {
            NsAccumulator &acc;
            Clock::time_point start = Clock::now();
            ~Span()
            {
                acc.ns += 1e9 * secondsSince(start);
                ++acc.calls;
            }
        } span{*this};
        return fn();
    }

    double mean() const { return calls ? ns / double(calls) : 0.0; }
};

/**
 * The kv.* rows and psm.span_access_ns: a one-replica KvService replay
 * on one LightPC machine, per write path, with the first storm trial's
 * ServiceMix, KvParams and op-log batching.
 */
std::vector<Metric>
replayKv(std::uint64_t seed, const Sizes &sizes, Outcome &out)
{
    const cluster::ClusterConfig trial = stormTrials(seed, sizes).front();
    const workload::ServiceMix &mix = trial.fleet.mix;
    constexpr std::uint64_t requests = 6000;

    NsAccumulator get, put_undo, put_oplog, scan, commit, drain, open,
        recover;
    std::uint64_t drained = 0, undo_put_accesses = 0, span_accesses = 0;
    std::uint64_t span_ns = 0;

    for (const net::WritePath path :
         {net::WritePath::Undo, net::WritePath::OpLog}) {
        TimingPort port;
        platform::SystemConfig sc;
        sc.seed = trial.seed;
        sc.overridePort = &port;
        platform::System sys(sc);
        port.bind(sys.psm());
        mem::TimedMem timed(port, &sys.pmemStore());

        net::KvParams kp = trial.kv;
        kp.writePath = path;
        const bool oplog = path == net::WritePath::OpLog;
        Tick t = 0;
        std::optional<net::KvService> kv;
        open.time([&] { kv.emplace(sys.pmemStore(), timed, kp); });

        Rng rng(Rng::streamSeed(trial.seed, oplog ? 2 : 1));
        std::uint64_t puts = 0;
        for (std::uint64_t i = 0; i < requests; ++i) {
            net::RpcRequest req;
            req.reqId = i + 1;
            req.client = static_cast<std::uint32_t>(rng.below(64));
            req.op = mix.pickOp(rng);
            req.key = mix.pickKey(rng);
            req.valueSeed = rng.next();
            req.scanLength = mix.scanLength;
            req.firstIssuedAt = t;

            bool deferred = false;
            const std::uint64_t before = port.accesses;
            NsAccumulator &acc = req.op == workload::KvOp::Get ? get
                : req.op == workload::KvOp::Scan              ? scan
                : oplog                                       ? put_oplog
                                                              : put_undo;
            const net::RpcResponse resp =
                acc.time([&] { return kv->execute(t, req, &deferred); });
            if (resp.status != net::RpcStatus::Ok
                && resp.status != net::RpcStatus::NotFound)
                out.fail(std::string("kv replay: ")
                         + workload::kvOpName(req.op) + " returned "
                         + net::rpcStatusName(resp.status));
            if (req.op == workload::KvOp::Put) {
                ++puts;
                if (!oplog)
                    undo_put_accesses += port.accesses - before;
            }
            if (oplog
                && kv->logUncommittedRecords()
                    >= trial.oplogCommitRecords)
                commit.time([&] { kv->logCommit(t); });
            if (oplog
                && kv->logBacklogRecords() >= trial.oplogDrainBatch)
                drained += drain.time(
                    [&] { return kv->logDrain(t, trial.oplogDrainBatch); });
        }
        if (oplog)
            kv->logDrainAll(t);
        recover.time([&] { kv->recover(t); });
        if (kv->appliedCount() != puts)
            out.fail("kv replay: " + std::to_string(kv->appliedCount())
                     + " PUTs durable after recover, "
                     + std::to_string(puts) + " acked");
        span_accesses += port.accesses;
        span_ns += port.hostNs;
    }

    return {
        {"kv.get_ns", get.mean(), "ns"},
        {"kv.put_undo_ns", put_undo.mean(), "ns"},
        {"kv.put_oplog_ns", put_oplog.mean(), "ns"},
        {"kv.scan_ns", scan.mean(), "ns"},
        {"kv.log_commit_ns", commit.mean(), "ns"},
        {"kv.log_drain_ns_per_record",
         drained ? drain.ns / double(drained) : 0.0, "ns"},
        {"kv.open_ms", 1e-6 * open.mean(), "ms"},
        {"kv.recover_ms", 1e-6 * recover.mean(), "ms"},
        {"kv.psm_accesses_per_put",
         put_undo.calls
             ? double(undo_put_accesses) / double(put_undo.calls)
             : 0.0,
         "count"},
        {"psm.span_access_ns",
         span_accesses ? double(span_ns) / double(span_accesses) : 0.0,
         "ns"},
    };
}

/** pecos.* rows: Stop/Go power cycles on one standalone machine. */
std::vector<Metric>
timeStopGo(std::uint64_t seed, Outcome &out)
{
    constexpr int cycles = 200;
    platform::SystemConfig sc;
    sc.seed = seed;
    platform::System sys(sc);
    NsAccumulator stop, resume;
    Tick now = 0;
    for (int c = 0; c < cycles; ++c) {
        const pecos::StopReport sr =
            stop.time([&] { return sys.sng().stop(now); });
        const pecos::GoReport gr = resume.time(
            [&] { return sys.sng().resume(sr.offlineDone + 100 * tickMs); });
        if (sr.commitFailed || gr.coldBoot) {
            out.fail("pecos rig: cycle " + std::to_string(c)
                     + " lost its EP-cut with unlimited hold-up");
            break;
        }
        now = gr.done + tickMs;
    }
    return {
        {"pecos.stop_us", 1e-3 * stop.mean(), "us"},
        {"pecos.resume_us", 1e-3 * resume.mean(), "us"},
    };
}

} // namespace

Outcome
trace(const std::string &workload, std::uint64_t seed, double seconds,
      unsigned threads, const Sizes &sizes)
{
    Outcome out;
    out.threads = threads;
    const Clock::time_point start = Clock::now();

    // Every traced run measures the whole layer ladder, so each
    // per-layer row is a measurement on every workload; the selected
    // workload decides which traced/untraced pair sets
    // trace_overhead_share. The ladder repeats while time remains and
    // each row is the median of its repetitions.
    std::vector<std::vector<Metric>> reps;
    double rep_s = 0.0;
    do {
        const Clock::time_point rep_start = Clock::now();
        // table2_machine: untraced, then cores on a timed port.
        const Batch t2 = table2Batch(seed, sizes);
        Table2Trace t2t;
        const Batch t2_traced = table2Batch(seed, sizes, &t2t);
        std::uint64_t gen_instr = 0;
        const double gen_s = drainGenerators(seed, sizes, gen_instr);
        addCheck(out, t2, "table2_machine");
        addCheck(out, t2_traced, "table2_machine traced");
        expectDigest(out, "table2_machine traced vs untraced",
                     t2_traced.digest, t2.digest);
        if (gen_instr != t2.work)
            out.fail("generator drain produced "
                     + std::to_string(gen_instr) + " instructions, "
                     "the machines retired " + std::to_string(t2.work));

        // powercut_campaign: one thread untraced, one thread traced
        // (spans per campaign), then one campaign of all cuts per mode
        // on one and on all threads for the scaling row.
        const Batch pc = powercutBatch(seed, 1, sizes);
        CampaignTimes modes;
        const Batch pc_traced = powercutBatch(seed, 1, sizes, &modes);
        const Batch pc_1 = powercutBatch(seed, 1, sizes, nullptr, 1);
        const Batch pc_n = powercutBatch(seed, threads, sizes, nullptr, 1);
        addCheck(out, pc, "powercut_campaign");
        addCheck(out, pc_1, "powercut_campaign whole campaigns");
        expectDigest(out, "powercut_campaign traced vs untraced",
                     pc_traced.digest, pc.digest);
        expectDigest(out, "powercut_campaign N vs 1 threads",
                     pc_n.digest, pc_1.digest);
        const std::vector<Metric> pecos_rows = timeStopGo(seed, out);

        // kv_cluster_storm: the same three passes, then the replay.
        const Batch kv = stormBatch(seed, 1, sizes);
        std::vector<TrialOut> trials;
        const Batch kv_traced = stormBatch(seed, 1, sizes, &trials);
        const Batch kv_n = stormBatch(seed, threads, sizes);
        addCheck(out, kv, "kv_cluster_storm");
        expectDigest(out, "kv_cluster_storm traced vs untraced",
                     kv_traced.digest, kv.digest);
        expectDigest(out, "kv_cluster_storm N vs 1 threads",
                     kv_n.digest, kv.digest);
        const std::vector<Metric> kv_rows = replayKv(seed, sizes, out);

        for (const Batch *b : {&t2, &t2_traced, &pc, &pc_traced, &pc_1,
                               &pc_n, &kv, &kv_traced, &kv_n})
            out.attempted += b->opMs.size();
        const bool on_t2 = workload == "table2_machine";
        const bool on_pc = workload == "powercut_campaign";
        out.digest = on_t2 ? t2.digest : on_pc ? pc.digest : kv.digest;
        const double overhead = on_t2 ? t2_traced.wallS / t2.wallS - 1
            : on_pc ? pc_traced.wallS / pc.wallS - 1
                    : kv_traced.wallS / kv.wallS - 1;

        const double instr = static_cast<double>(t2t.instructions);
        const double psm_share = t2t.psmHostS / t2_traced.wallS;
        const double gen_share = gen_s / t2.wallS;
        const double cuts_per_mode =
            static_cast<double>(pc.work) / std::size(campaignRunners);

        double mode_ms[3] = {};
        double mode_trials[3] = {};
        std::uint64_t msgs = 0, acked = 0, cold = 0, fulls = 0;
        for (const TrialOut &t : trials) {
            const cluster::ClusterResult &r = t.result;
            const int m = r.mode == net::PersistMode::SnG     ? 0
                : r.mode == net::PersistMode::OpLog           ? 1
                                                              : 2;
            mode_ms[m] += t.ms;
            mode_trials[m] += 1;
            msgs += r.proposals + r.heartbeats + r.retransmits
                + r.syncRecords;
            acked += r.ackedPuts;
            cold += r.coldBoots;
            fulls += r.syncFulls;
        }

        std::vector<Metric> row = {
            {"trace_overhead_share", overhead, "ratio"},
            {"psm.access_ns",
             1e9 * t2t.psmHostS / static_cast<double>(t2t.psmAccesses),
             "ns"},
            {"psm.access_share", psm_share, "ratio"},
            {"psm.accesses_per_kinstr",
             1e3 * static_cast<double>(t2t.psmAccesses) / instr, "count"},
            {"workload.gen_ns_per_instr",
             1e9 * gen_s / static_cast<double>(gen_instr), "ns"},
            {"workload.gen_share", gen_share, "ratio"},
            {"core.self_share", selfShare(1.0, {psm_share, gen_share}),
             "ratio"},
            {"cache.l1_misses_per_kinstr",
             1e3 * static_cast<double>(t2t.l1Misses) / instr, "count"},
            {"cache.writebacks_per_kinstr",
             1e3 * static_cast<double>(t2t.writebacks) / instr, "count"},
            {"psm.row_buffer_hit_rate",
             static_cast<double>(t2t.rowBufferHits)
                 / static_cast<double>(t2t.psmAccesses),
             "ratio"},
            {"psm.reconstructed_reads",
             static_cast<double>(t2t.reconstructedReads), "count"},
            {"psm.blocked_reads", static_cast<double>(t2t.blockedReads),
             "count"},
        };
        for (std::size_t m = 0; m < std::size(campaignRunners); ++m)
            row.push_back({std::string("fault.") + campaignRunners[m].key
                               + "_ms_per_trial",
                           1e3 * modes.modeS[m] / cuts_per_mode, "ms"});
        const double pc_trials = static_cast<double>(pc.work);
        const double n = static_cast<double>(threads);
        row.insert(row.end(), pecos_rows.begin(), pecos_rows.end());
        row.insert(
            row.end(),
            {
                {"fault.dropped_writes_per_trial",
                 static_cast<double>(modes.dropped) / pc_trials, "count"},
                {"fault.torn_writes_per_trial",
                 static_cast<double>(modes.torn) / pc_trials, "count"},
                {"executor.parallel_efficiency",
                 (pc_1.wallS + kv.wallS)
                     / (n * (pc_n.wallS + kv_n.wallS)),
                 "ratio"},
                {"cluster.sng_ms_per_trial", mode_ms[0] / mode_trials[0],
                 "ms"},
                {"cluster.oplog_ms_per_trial",
                 mode_ms[1] / mode_trials[1], "ms"},
                {"cluster.syspc_ms_per_trial",
                 mode_ms[2] / mode_trials[2], "ms"},
                {"cluster.msgs_per_acked_put",
                 static_cast<double>(msgs) / static_cast<double>(acked),
                 "count"},
                {"cluster.cold_boots", static_cast<double>(cold), "count"},
                {"cluster.sync_fulls", static_cast<double>(fulls),
                 "count"},
            });
        row.insert(row.end(), kv_rows.begin(), kv_rows.end());
        reps.push_back(std::move(row));
        rep_s = secondsSince(rep_start);
        // Start another repetition only if it fits in the time left.
    } while (secondsSince(start) + rep_s <= seconds);

    for (std::size_t i = 0; i < reps.front().size(); ++i) {
        std::vector<double> values;
        for (const auto &row : reps)
            values.push_back(row[i].value);
        out.metrics.push_back(
            {reps.front()[i].name, median(values), reps.front()[i].unit});
    }
    out.report = {
        {"ladder_repetitions", static_cast<double>(reps.size()), "count"},
    };
    return out;
}

std::vector<std::pair<std::string, std::string>>
buildProvenance()
{
    return {
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"cxx_flags", PERFBENCH_CXX_FLAGS},
        {"compiler", PERFBENCH_COMPILER},
        {"optimised", optimisedBuild() ? "yes" : "no"},
    };
}

bool
optimisedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

} // namespace lightpc::perfbench
