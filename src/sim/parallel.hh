/**
 * @file
 * Work-stealing trial pool with deterministic reduction.
 *
 * Every headline result in this repro comes from hundreds of seeded,
 * fully isolated trials: each one builds its own platform::System (or
 * Kernel + Psm + BackingStore rig), draws from its own Rng stream,
 * and writes its own stat sinks. Trials therefore parallelize
 * embarrassingly — *if* the campaign output cannot depend on which
 * host thread ran which trial. ParallelExecutor enforces that split:
 *
 *  - The pool only decides *where* a trial index runs. Each worker
 *    owns a contiguous slice of the index space and pops from its
 *    front; a worker that drains its slice steals the back half of
 *    the fullest remaining slice (classic work stealing, coarse
 *    enough that the per-pop mutex costs nothing against trials that
 *    run for milliseconds).
 *
 *  - The reduction layer decides *what the campaign reports*: map()
 *    lands every trial's result in its canonical per-index slot, and
 *    the campaign folds those slots in ascending index order
 *    regardless of completion order (stats::foldTrials). A campaign
 *    digest computed from that fold is therefore bit-identical at
 *    --threads 1 and --threads N — the determinism proof the benches
 *    and CI enforce.
 *
 * Event execution inside one trial stays single-threaded: the kernel
 * is a sequential discrete-event simulator and its determinism
 * argument (seeded Rng streams, tick-ordered queue) relies on that.
 * Parallelism lives strictly at the trial boundary.
 */

#ifndef LIGHTPC_SIM_PARALLEL_HH
#define LIGHTPC_SIM_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace lightpc::sim
{

/** Host hardware concurrency, never less than 1. */
unsigned hardwareThreads();

/**
 * Resolve a user-facing --threads knob: 0 means one worker per host
 * thread, anything else is taken literally.
 */
unsigned resolveThreads(unsigned requested);

/**
 * Parse a --threads / -j command-line value. Accepts strictly
 * positive decimal integers only. Anything else — zero, a negative
 * number (which a raw strtoul would wrap into a four-billion-worker
 * fleet), non-numeric text, trailing junk, or overflow — prints a
 * clear warning to stderr and returns the safe fallback of one
 * worker. Campaign results are digest-identical at any thread count,
 * so the fallback changes wall clock only, never output.
 */
unsigned parseThreadsArg(const char *text);

/**
 * Fans independent trial indices across host threads.
 */
class ParallelExecutor
{
  public:
    /** @param threads Worker count; 0 = hardwareThreads(). */
    explicit ParallelExecutor(unsigned threads = 0);

    unsigned threads() const { return nThreads; }

    /**
     * Run @p fn(i) once for every i in [0, count). Trials must be
     * mutually independent; @p fn is invoked concurrently from
     * multiple threads (the calling thread participates as worker 0).
     * With one worker — or one trial — everything runs inline on the
     * calling thread, so --threads 1 is exactly the sequential
     * kernel. The first exception a trial throws is rethrown here
     * after all workers drain.
     */
    void forEach(std::uint64_t count,
                 const std::function<void(std::uint64_t)> &fn) const;

    /**
     * forEach() with each trial's result captured in its canonical
     * per-index slot, regardless of which worker produced it.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::uint64_t count, Fn &&fn) const
    {
        std::vector<R> out(static_cast<std::size_t>(count));
        forEach(count, [&](std::uint64_t i) {
            out[static_cast<std::size_t>(i)] = fn(i);
        });
        return out;
    }

  private:
    unsigned nThreads;
};

} // namespace lightpc::sim

#endif // LIGHTPC_SIM_PARALLEL_HH
