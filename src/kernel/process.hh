/**
 * @file
 * Process control blocks (task_struct analogue).
 *
 * PecOS's SnG manipulates real scheduling state: Drive-to-Idle walks
 * PCBs derived from the init task, signals user processes, drives
 * sleepers through their pending work, and parks everything
 * TASK_UNINTERRUPTIBLE off the run queues. The Go phase later flips
 * them back to TASK_NORMAL and re-executes from the EP-cut, so the
 * PCB carries the full architectural state (register file, program
 * counter, page-table pointer) that must survive the power cycle
 * bit-for-bit.
 */

#ifndef LIGHTPC_KERNEL_PROCESS_HH
#define LIGHTPC_KERNEL_PROCESS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/rng.hh"

namespace lightpc::kernel
{

/** Scheduling states (the subset SnG manipulates). */
enum class TaskState
{
    Running,          ///< currently on a core
    Runnable,         ///< on a run queue
    Sleeping,         ///< interruptible sleep
    Uninterruptible,  ///< parked by Drive-to-Idle (or real D-state)
    Stopped,          ///< fully stopped (idle task placed)
};

/** RISC-V-ish architectural state stored in the PCB. */
struct RegisterFile
{
    std::array<std::uint64_t, 31> x{};  ///< integer registers
    std::uint64_t pc = 0;
    std::uint64_t sp = 0;
    std::uint64_t satp = 0;  ///< page-table directory pointer

    bool
    operator==(const RegisterFile &other) const = default;

    /** Scramble with an RNG (simulating execution progress). */
    void randomize(Rng &rng);
};

/** One mapped region of a process (vm_area_struct analogue). */
struct VmArea
{
    enum class Kind
    {
        Code,
        Data,
        Heap,
        Stack,
    };

    Kind kind = Kind::Data;
    mem::Addr start = 0;
    std::uint64_t bytes = 0;
};

/**
 * A process control block.
 */
class Process
{
  public:
    Process(std::uint32_t pid, std::string name, bool kernel_thread);

    std::uint32_t pid() const { return _pid; }
    const std::string &name() const { return _name; }

    /** Kernel threads have no user address space to checkpoint. */
    bool isKernelThread() const { return kernelThread; }

    TaskState state() const { return _state; }
    void setState(TaskState s) { _state = s; }

    /** Core this task last ran on (-1 if never scheduled). */
    int cpu() const { return _cpu; }
    void setCpu(int c) { _cpu = c; }

    /** Architectural state (saved to the PCB on context switch). */
    RegisterFile &regs() { return _regs; }
    const RegisterFile &regs() const { return _regs; }

    /** Mapped regions (consumed by checkpoint baselines). */
    std::vector<VmArea> &vmAreas() { return _vmAreas; }
    const std::vector<VmArea> &vmAreas() const { return _vmAreas; }

    /** Total mapped bytes. */
    std::uint64_t footprintBytes() const;

    /** Stack + heap bytes (A-CheckPC's selective dump). */
    std::uint64_t stackHeapBytes() const;

    /** Pending signals/softirq work to handle before parking. */
    std::uint32_t pendingWork() const { return _pendingWork; }
    void setPendingWork(std::uint32_t n) { _pendingWork = n; }

  private:
    std::uint32_t _pid;
    std::string _name;
    bool kernelThread;
    TaskState _state = TaskState::Sleeping;
    int _cpu = -1;
    RegisterFile _regs;
    std::vector<VmArea> _vmAreas;
    std::uint32_t _pendingWork = 0;
};

} // namespace lightpc::kernel

#endif // LIGHTPC_KERNEL_PROCESS_HH
