/**
 * @file
 * One emergency-persist trial per persistence mode: the single home
 * of the cut-and-recover invariant matrix.
 *
 * A probe builds a fresh rig, arms the power cut on the store
 * (BackingStore::armPowerCut), runs the mode's power-down path,
 * restores power (disarmPowerCut), runs recovery and judges what
 * recovery found against the mode's one allowed-outcome rule:
 *
 *  - SnG resumes iff its EP-cut commit beat the rails, and a resume
 *    restores every PCB register file byte-exactly;
 *  - SysPC and S-CheckPC (one probe, probeImage) recover the newest
 *    checksummed image whose body verifies: the new image iff its
 *    commit record beat the rails, the prior one if the cut landed
 *    mid-body, either one if the cut landed inside the record's own
 *    write;
 *  - A-CheckPC recovers the newest capture whose record beat the
 *    rails, or the capture whose record write the cut straddled.
 *
 * All three image baselines dump through persist::ImageCheckpoint,
 * each with its own kind.
 *
 * The SnG rule is stated once, in cutSng() (the Stop racing the cut,
 * and the commit check) and judgeSngRecovery() (the resume-or-cold
 * verdict and the register check). probeSng, the compound engine's
 * stop-cut, deep-sag and storm scenarios and the RAS trial all run
 * their SnG power-downs through them; each keeps its own cut choice,
 * its own recovery call and its own counters.
 *
 * The power-cut campaign and the energy provisioning campaign run
 * their persist trials through these probes. They differ only in the
 * footprint they pass, in how they pick the cut and in what they
 * count from the outcome.
 */

#ifndef LIGHTPC_FAULT_PERSIST_PROBE_HH
#define LIGHTPC_FAULT_PERSIST_PROBE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "net/machine.hh"
#include "pecos/sng.hh"
#include "persist/checkpoint.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/** One fresh SnG platform, built the same way every trial from its
 *  kernel and PSM parameters. */
struct SngRig
{
    explicit SngRig(const kernel::KernelParams &kernel_params = {},
                    const psm::PsmParams &psm_params = {})
        : kern(kernel_params), psm(psm_params)
    {}

    kernel::Kernel kern;
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng{kern, psm, store, {}};
};

/** What an SnG Stop that raced a power cut leaves for recovery. */
struct SngCut
{
    kernel::SystemSnapshot before;  ///< the registers Stop saved
    pecos::StopReport stop;
    Tick cut = maxTick;             ///< the armed cut (maxTick: none)
    bool durable = false;           ///< the EP-cut commit beat the rails
};

/**
 * The SnG power-down every campaign runs: snapshot the registers,
 * arm a cut at @p cut unless it is maxTick (its torn seed is the
 * next draw of @p rng), Stop from @p start, lose power (the kernel
 * is scrambled from @p rng, so a resume that reads stale volatile
 * state cannot pass the register check), restore it and run
 * judgeSngCommit().
 */
SngCut cutSng(SngRig &rig, Tick start, Tick cut, Rng &rng,
              std::uint64_t &violations, std::vector<std::string> &notes,
              const char *site);

/**
 * The commit check: OC-PMEM holds an EP-cut commit iff it beat the
 * rails. A violation is counted in @p violations and noted in
 * @p notes under @p site.
 */
void judgeSngCommit(const SngRig &rig, const SngCut &c,
                    std::uint64_t &violations,
                    std::vector<std::string> &notes, const char *site);

/**
 * The verdict on recovering from @p c: the machine resumes iff the
 * commit was durable (a @p degraded cold boot, a supervisor giving
 * up on a durable image, is allowed), and a resume restores every
 * register file byte-exactly. Violations go where judgeSngCommit()
 * sends them.
 */
void judgeSngRecovery(const SngRig &rig, const SngCut &c,
                      bool cold_boot, bool degraded,
                      std::uint64_t &violations,
                      std::vector<std::string> &notes, const char *site);

/** The fabric of one image-baseline or op-log trial. */
struct ImageRig
{
    mem::BackingStore store;
    psm::Psm psm;
    psm::PsmPort port{psm};
    mem::TimedMem pmem{port, &store};
};

/**
 * Static platform load while @p active cores compute and @p idle
 * cores idle, with the OC-PMEM DIMMs always powered.
 */
double phaseWatts(const power::PowerModel &model, std::uint32_t active,
                  std::uint32_t idle, std::uint32_t pram_dimms);

/** The per-mode salt both campaigns mix into their RNG seeds. */
std::uint64_t modeSalt(net::PersistMode mode);

/**
 * KvService parameters of the op-log trials: a deliberately tiny
 * ring of @p ring_records records, so a short PUT stream wraps it.
 */
net::KvParams oplogKvParams(std::uint64_t ring_records);

/** PUT @p id of an op-log trial's stream. */
net::RpcRequest oplogPutReq(std::uint64_t id, std::uint64_t key,
                            std::uint64_t seed);

/** What one probe saw. */
struct ProbeOutcome
{
    /** Which window of the power-down path the cut landed in. */
    CutPhase phase = CutPhase::PostCommit;

    /** The probe's final commit beat the rails. */
    bool durable = false;

    /** Recovery came back with state (else it cold-booted). */
    bool resumed = false;

    /** The recovered state passed the mode's judge. */
    bool intact = false;

    std::uint64_t droppedWrites = 0;
    std::uint64_t tornWrites = 0;
};

/**
 * Picks the absolute cut tick once the probe knows @p ac, the tick
 * AC drops and the racing dump starts.
 */
using CutPicker = std::function<Tick(Tick ac)>;

/** S-CheckPC's checkpoint period. */
inline constexpr Tick sCheckPcPeriod = 50 * tickMs;

/**
 * SnG: Stop from tick 0 races a cut at @p cut, the volatile state is
 * scrambled, and Go runs 100 ms after the cut. Violations are counted
 * in @p violations and kept in @p notes.
 */
ProbeOutcome probeSng(Tick cut, Rng &rng, std::uint64_t &violations,
                      std::vector<std::string> &notes);

/**
 * The image run a SysPC or S-CheckPC probe races: @p prior committed
 * dumps of @p priorBytes from @p start, each followed by @p gap, then
 * the dump of @p dumpBytes that starts as AC drops.
 */
struct ImageRun
{
    persist::ImageKind kind;
    std::uint64_t prior = 0;
    std::uint64_t priorBytes = 0;
    Tick gap = 0;
    std::uint64_t dumpBytes = 0;
    Tick start = 0;
};

/**
 * SysPC's run: a committed base image if @p have_base, AC loss one
 * millisecond after it (or after tick 0), then the hibernate dump of
 * @p dump_bytes.
 */
ImageRun sysPcRun(bool have_base, std::uint64_t dump_bytes);

/**
 * S-CheckPC's run: @p prior committed dumps of @p vm_bytes, each
 * followed by @p gap, then the dump running when AC drops.
 */
ImageRun sCheckPcRun(std::uint64_t prior, std::uint64_t vm_bytes,
                     Tick gap);

/** @p run's racing dump against the cut @p pick chooses. */
ProbeOutcome probeImage(const ImageRun &run, Rng &rng,
                        const CutPicker &pick, std::uint64_t &violations,
                        std::vector<std::string> &notes);

/**
 * A-CheckPC: a run of @p captures per-function checkpoints, each
 * after @p think ticks of function body, racing a cut at @p cut.
 */
ProbeOutcome probeACheckPc(std::uint64_t captures, Tick think, Tick cut,
                           Rng &rng, std::uint64_t &violations,
                           std::vector<std::string> &notes);

/** A racing dump's timeline from a cut-free run. */
struct DumpWindows
{
    Tick ac = 0;        ///< AC loss: the dump starts
    Tick bodyDone = 0;  ///< the body is durable
    Tick commitAt = 0;  ///< the commit record landed
};

/** probeImage()'s timeline for @p run with no cut. */
DumpWindows imageWindows(const ImageRun &run);

/** When probeACheckPc()'s last record lands with no cut. */
Tick aCheckPcLastCommit(std::uint64_t captures, Tick think);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_PERSIST_PROBE_HH
