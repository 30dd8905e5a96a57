/**
 * @file
 * The PecOS kernel substrate.
 *
 * Aggregates everything SnG operates on: the process tree (init +
 * kernel threads + user processes), per-core run queues, the dpm
 * device list, and the system-wide persistent flag that
 * distinguishes a power-recovery boot from a cold boot.
 */

#ifndef LIGHTPC_KERNEL_KERNEL_HH
#define LIGHTPC_KERNEL_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/device.hh"
#include "kernel/process.hh"
#include "sim/rng.hh"

namespace lightpc::kernel
{

/** System population parameters. */
struct KernelParams
{
    std::uint32_t cores = 8;

    /** User processes (prototype busy system: 72). */
    std::uint32_t userProcesses = 72;

    /** Kernel threads (prototype busy system: 48). */
    std::uint32_t kernelThreads = 48;

    /**
     * Busy: every core runs a heavy thread with more queued behind
     * it. Idle: only kernel housekeeping and a shell are runnable.
     */
    bool busy = true;

    /** Drivers registered in dpm_list. */
    std::size_t deviceCount = 300;

    std::uint64_t seed = 11;
};

/** A snapshot of all PCB architectural state, for EP-cut checks. */
struct SystemSnapshot
{
    struct Entry
    {
        std::uint32_t pid;
        RegisterFile regs;
        TaskState state;

        bool operator==(const Entry &other) const = default;
    };

    std::vector<Entry> entries;
    std::vector<std::uint64_t> deviceCookies;

    bool operator==(const SystemSnapshot &other) const = default;

    /**
     * The same processes with byte-identical register files and
     * device cookies: what a resume must restore. Task state is not
     * compared, since a resume legitimately transitions it.
     */
    bool
    registersMatch(const SystemSnapshot &other) const
    {
        return deviceCookies == other.deviceCookies
            && std::equal(entries.begin(), entries.end(),
                          other.entries.begin(), other.entries.end(),
                          [](const Entry &a, const Entry &b) {
                              return a.pid == b.pid && a.regs == b.regs;
                          });
    }
};

/**
 * The simulated kernel.
 */
class Kernel
{
  public:
    explicit Kernel(const KernelParams &params = KernelParams());

    const KernelParams &params() const { return _params; }
    std::uint32_t cores() const { return _params.cores; }

    /** All processes, init first. */
    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return procs;
    }

    /** Mutable process access. */
    Process &process(std::size_t idx) { return *procs[idx]; }
    std::size_t processCount() const { return procs.size(); }

    /** Run queue of one core (runnable/running tasks). */
    std::vector<Process *> &runQueue(std::uint32_t cpu)
    {
        return runQueues[cpu];
    }

    /** Processes in interruptible sleep (Drive-to-Idle's targets). */
    std::vector<Process *> sleepingProcesses();

    /**
     * Fork/exec: create a process at runtime. Runnable/Running
     * states enqueue it on @p cpu (or the least-loaded core).
     */
    Process &spawnProcess(const std::string &name, bool kernel_thread,
                          TaskState initial, int cpu = -1);

    /**
     * Exit: remove a process (and dequeue it). init (PID 1) cannot
     * exit. @return false when the PID does not exist.
     */
    bool exitProcess(std::uint32_t pid);

    /** Find a process by PID (nullptr when absent). */
    Process *findProcess(std::uint32_t pid);

    /** Tasks currently on any run queue. */
    std::size_t runnableCount() const;

    DeviceManager &devices() { return _devices; }
    const DeviceManager &devices() const { return _devices; }

    /** The system-wide persistent flag set by Drive-to-Idle. */
    bool persistentFlag() const { return _persistentFlag; }
    void setPersistentFlag(bool v) { _persistentFlag = v; }

    /**
     * Approximate bytes a full system image must capture (all
     * process footprints plus kernel text/data) — SysPC's payload.
     */
    std::uint64_t systemImageBytes() const;

    /** Scramble every live PCB (simulates execution progress). */
    void scramble(Rng &rng);

    /** Capture all PCB architectural state + device cookies. */
    SystemSnapshot snapshot() const;

  private:
    void populate();
    std::unique_ptr<Process> makeUserProcess(const std::string &name);
    std::unique_ptr<Process> makeKernelThread(const std::string &name);

    KernelParams _params;
    Rng rng;
    std::uint32_t nextPid = 1;
    std::vector<std::unique_ptr<Process>> procs;
    std::vector<std::vector<Process *>> runQueues;
    DeviceManager _devices;
    bool _persistentFlag = false;
};

} // namespace lightpc::kernel

#endif // LIGHTPC_KERNEL_KERNEL_HH
