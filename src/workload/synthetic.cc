#include "workload/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace lightpc::workload
{

SyntheticStream::SyntheticStream(const WorkloadSpec &spec_in,
                                 const SyntheticConfig &config_in,
                                 std::uint32_t thread_id,
                                 mem::Addr base_addr)
    : spec(spec_in),
      config(config_in),
      seedBase(config_in.seed * 0x9e3779b97f4a7c15ULL + thread_id),
      rng(seedBase)
{
    if (config.scaleDivisor == 0)
        fatal("SyntheticConfig scaleDivisor must be nonzero");
    if (config.threads == 0)
        fatal("SyntheticConfig threads must be nonzero");

    // Disjoint per-thread hot sets at the front of the region, cold
    // footprint behind them.
    hotBase = base_addr
        + mem::Addr(thread_id) * SyntheticConfig::hotBytes;
    coldBase = base_addr
        + mem::Addr(config.threads) * SyntheticConfig::hotBytes;

    // Table II's read/write counts are *memory-level* requests (the
    // only interpretation consistent with the paper's ~60 B-cycle
    // runs); the D$ hit rates expand them to CPU-level loads and
    // stores.
    const double read_miss =
        std::max(1.0 - spec.readHitRate, 1e-3);
    const double write_miss =
        std::max(1.0 - spec.writeHitRate, 1e-3);
    const double cpu_reads =
        static_cast<double>(spec.reads) / read_miss;
    const double cpu_writes =
        static_cast<double>(spec.writes) / write_miss;
    const std::uint64_t mem_ops = static_cast<std::uint64_t>(
        (cpu_reads + cpu_writes)
        / static_cast<double>(config.scaleDivisor)
        / config.threads);
    const double prob_mem = spec.memFraction;
    const double prob_read = cpu_reads / (cpu_reads + cpu_writes);
    totalInstr = static_cast<std::uint64_t>(
        static_cast<double>(mem_ops) / prob_mem);

    // The cold footprint scales with the run so that, like the real
    // workload, the working set is traversed several times: caches
    // beyond L1 (e.g. mem-mode's NMEM DRAM cache) warm up instead of
    // seeing a compulsory-unique stream. Bounded below so it still
    // dwarfs L1.
    const double cold_rate =
        (1.0 - spec.readHitRate) * prob_read
        + (1.0 - spec.writeHitRate) * (1.0 - prob_read);
    const std::uint64_t cold_accesses = static_cast<std::uint64_t>(
        static_cast<double>(mem_ops) * cold_rate);
    coldLines = std::max<std::uint64_t>(
        std::min(spec.footprintBytes / mem::cacheLineBytes,
                 cold_accesses / 4),
        32 * 1024);

    memThreshold = Rng::chanceThreshold(prob_mem);
    readThreshold = Rng::chanceThreshold(prob_read);
    readHitThreshold = Rng::chanceThreshold(spec.readHitRate);
    writeHitThreshold = Rng::chanceThreshold(spec.writeHitRate);
    rawThreshold = Rng::chanceThreshold(spec.rawAffinity);
    runEndThreshold =
        Rng::chanceThreshold(1.0 / std::max(spec.seqRunLines, 1.0));

    cursorLine = rng.below(coldLines);

    // A cold line is written back roughly when the whole L1 has
    // been refilled by newer cold allocations; express that age in
    // cold-*write* counts so it indexes the ring below.
    const double cold_write_rate =
        (1.0 - spec.writeHitRate) * (1.0 - prob_read);
    const double cold_alloc_rate = cold_write_rate
        + (1.0 - spec.readHitRate) * prob_read;
    const double share = cold_alloc_rate > 0.0
        ? cold_write_rate / cold_alloc_rate : 0.0;
    evictionAge = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(
               share
               * static_cast<double>(SyntheticConfig::assumedCacheLines)));
    recentWrites.assign(
        std::max<std::size_t>(64, 4 * evictionAge), 0);
}

void
SyntheticStream::rewind()
{
    rng = Rng(seedBase);
    count = 0;
    cursorLine = rng.below(coldLines);
    runRemaining = 0;
    recentPos = 0;
    recentCount = 0;
}

mem::Addr
SyntheticStream::hotAddr()
{
    const std::uint64_t hot_lines =
        SyntheticConfig::hotBytes / mem::cacheLineBytes;
    return hotBase + rng.below(hot_lines) * mem::cacheLineBytes;
}

mem::Addr
SyntheticStream::coldAddr(bool is_read)
{
    if (is_read && recentCount == recentWrites.size()
        && rng.chanceFixed(rawThreshold)) {
        // Read-after-write: target a line written about an eviction
        // age ago — written back from L1 by now (so the read reaches
        // the memory and the Table II hit rates stay faithful),
        // possibly with its writeback still cooling off in the PRAM
        // (Fig. 16). Each written line is re-read at most once; a
        // consumed or not-yet-filled slot falls through to a normal
        // cold read.
        const std::size_t age = evictionAge
            + rng.below(std::max<std::uint64_t>(2 * evictionAge, 1));
        const std::size_t idx =
            (recentPos + recentWrites.size() - 1 - age)
            % recentWrites.size();
        const mem::Addr target = recentWrites[idx];
        if (target != 0) {
            recentWrites[idx] = 0;
            return target;
        }
    }

    if (runRemaining == 0) {
        // Start a new sequential run somewhere else in the footprint.
        cursorLine = rng.below(coldLines);
        // Geometric run length with the spec's mean (>= 1).
        runRemaining = 1;
        while (runRemaining < 512 && !rng.chanceFixed(runEndThreshold))
            ++runRemaining;
    }
    --runRemaining;
    const mem::Addr addr =
        coldBase + (cursorLine % coldLines) * mem::cacheLineBytes;
    ++cursorLine;

    if (!is_read) {
        recentWrites[recentPos] = addr;
        recentPos = (recentPos + 1) % recentWrites.size();
        recentCount = std::min(recentCount + 1, recentWrites.size());
    }
    return addr;
}

bool
SyntheticStream::generate(cpu::Instr &out, std::uint32_t budget)
{
    if (count >= totalInstr)
        return false;

    // Every instruction starts with its memory-op decision. Each "no"
    // is one ALU instruction of the entry; stop at the first "yes",
    // at the budget, or at the end of the stream.
    const std::uint64_t limit =
        std::min<std::uint64_t>(budget, totalInstr - count);
    std::uint64_t alu = 0;
    while (alu < limit && !rng.chanceFixed(memThreshold))
        ++alu;
    if (alu == limit) {
        count += alu;
        out.kind = cpu::InstrKind::Alu;
        out.count = static_cast<std::uint32_t>(alu);
        out.addr = 0;
        return true;
    }
    count += alu + 1;
    out.count = static_cast<std::uint32_t>(alu + 1);

    const bool is_read = rng.chanceFixed(readThreshold);
    const bool hot =
        rng.chanceFixed(is_read ? readHitThreshold : writeHitThreshold);
    out.kind = is_read ? cpu::InstrKind::Load : cpu::InstrKind::Store;
    out.addr = hot ? hotAddr() : coldAddr(is_read);
    return true;
}

std::vector<std::unique_ptr<SyntheticStream>>
makeMixedStreams(const std::vector<std::string> &names,
                 const SyntheticConfig &config_in,
                 mem::Addr base_addr)
{
    SyntheticConfig config = config_in;
    config.threads = 1;

    std::vector<std::unique_ptr<SyntheticStream>> streams;
    streams.reserve(names.size());
    mem::Addr region = base_addr;
    std::uint32_t index = 0;
    for (const auto &name : names) {
        const WorkloadSpec &spec = findWorkload(name);
        SyntheticConfig per = config;
        per.seed = config.seed * 1000003ULL + index++;
        streams.push_back(
            std::make_unique<SyntheticStream>(spec, per, 0, region));
        // Disjoint regions: hot set + the scaled cold footprint,
        // rounded up generously.
        region += SyntheticConfig::hotBytes + spec.footprintBytes
            + (std::uint64_t(16) << 20);
    }
    return streams;
}

std::vector<std::unique_ptr<SyntheticStream>>
makeStreams(const WorkloadSpec &spec, const SyntheticConfig &config_in,
            std::uint32_t available_cores, mem::Addr base_addr)
{
    SyntheticConfig config = config_in;
    config.threads = spec.multithread
        ? std::max<std::uint32_t>(available_cores, 1) : 1;

    std::vector<std::unique_ptr<SyntheticStream>> streams;
    streams.reserve(config.threads);
    for (std::uint32_t t = 0; t < config.threads; ++t)
        streams.push_back(std::make_unique<SyntheticStream>(
            spec, config, t, base_addr));
    return streams;
}

} // namespace lightpc::workload
