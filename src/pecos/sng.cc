#include "pecos/sng.hh"

#include <algorithm>

#include "pecos/energy_guard.hh"
#include "sim/logging.hh"

namespace lightpc::pecos
{

const char *
stopSubPhaseName(StopSubPhase phase)
{
    switch (phase) {
      case StopSubPhase::None: return "none";
      case StopSubPhase::DriveToIdle: return "drive-to-idle";
      case StopSubPhase::DeviceContextSave: return "device-context-save";
      case StopSubPhase::MasterCacheFlush: return "master-cache-flush";
      case StopSubPhase::WorkerOffline: return "worker-offline";
      case StopSubPhase::BootloaderDump: return "bootloader-dump";
      case StopSubPhase::CommitWindow: return "commit-window";
      case StopSubPhase::PostCommit: return "post-commit";
    }
    return "?";
}

const char *
goSubPhaseName(GoSubPhase phase)
{
    switch (phase) {
      case GoSubPhase::None: return "none";
      case GoSubPhase::BcbRestore: return "bcb-restore";
      case GoSubPhase::CoreBringup: return "core-bringup";
      case GoSubPhase::DeviceRestore: return "device-restore";
      case GoSubPhase::ProcessThaw: return "process-thaw";
      case GoSubPhase::CommitClear: return "commit-clear";
      case GoSubPhase::Complete: return "complete";
    }
    return "?";
}

Sng::Sng(kernel::Kernel &kernel, psm::Psm &psm_in,
         mem::BackingStore &pmem_in,
         std::vector<cache::L1Cache *> caches_in, const SngCosts &costs)
    : kern(kernel),
      psm(psm_in),
      pmem(pmem_in),
      caches(std::move(caches_in)),
      _costs(costs),
      layout(psm_in.capacityBytes()),
      port(psm_in),
      timed(port, &pmem_in)
{
}

bool
Sng::hasCommit() const
{
    return pmem.readValue<std::uint64_t>(layout.bcbAddr()) == epCutMagic;
}

void
Sng::invalidateCommit(Tick when)
{
    pmem.setWriteClock(when);
    pmem.writeValue(layout.bcbAddr(), std::uint64_t(0));
}

Tick
Sng::driveToIdle(Tick when, StopReport &report)
{
    using kernel::TaskState;

    // The core seizing the power-event interrupt becomes master and
    // sets the system-wide persistent flag.
    Tick t = when + _costs.setPersistentFlag;
    kern.setPersistentFlag(true);

    const std::uint32_t cores = kern.cores();
    std::vector<Tick> core_done(cores, t);

    // The master traverses every alive PCB derived from init; the
    // walk streams IPIs to workers, so it overlaps with their work.
    const Tick walk_done =
        t + _costs.pcbWalkPerTask * kern.processCount();

    // Wake sleepers and spread them over the cores by load.
    std::vector<std::size_t> load(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        load[c] = kern.runQueue(c).size();

    for (kernel::Process *proc : kern.sleepingProcesses()) {
        const std::uint32_t target = static_cast<std::uint32_t>(
            std::min_element(load.begin(), load.end())
            - load.begin());
        ++load[target];
        proc->setCpu(static_cast<int>(target));

        // IPI to the worker, fake signal handling from the kernel
        // stack, any pending work, then a context switch out into
        // TASK_UNINTERRUPTIBLE.
        Tick cost = _costs.ipi;
        if (!proc->isKernelThread())
            cost += _costs.fakeSignal;
        cost += _costs.pendingWorkItem * proc->pendingWork();
        cost += _costs.contextSwitch + _costs.parkTask;
        core_done[target] += cost;

        proc->setPendingWork(0);
        proc->setState(TaskState::Uninterruptible);
        ++report.tasksParked;
    }

    // Park everything already running or queued on each core.
    for (std::uint32_t c = 0; c < cores; ++c) {
        auto &queue = kern.runQueue(c);
        for (kernel::Process *proc : queue) {
            Tick cost = 0;
            if (!proc->isKernelThread())
                cost += _costs.fakeSignal;
            cost += _costs.pendingWorkItem * proc->pendingWork();
            cost += _costs.contextSwitch + _costs.parkTask;
            core_done[c] += cost;
            proc->setPendingWork(0);
            proc->setState(TaskState::Uninterruptible);
            ++report.tasksParked;
        }
        queue.clear();
    }

    // Serialize every PCB into the reserved area. The architectural
    // state was stored on the PCB during each context switch (cost
    // already charged above); this is its persistent image. Each
    // entry lands as the master's walk reaches it, so a power cut
    // mid-walk leaves exactly the walked prefix durable.
    mem::Addr addr = layout.pcbAddr();
    Tick pcb_t = t;
    for (std::size_t i = 0; i < kern.processCount(); ++i) {
        const kernel::Process &proc = kern.process(i);
        PcbEntry entry;
        entry.pid = proc.pid();
        entry.state = static_cast<std::uint32_t>(proc.state());
        entry.cpu = proc.cpu();
        entry.regs = proc.regs();
        pcb_t += _costs.pcbWalkPerTask;
        pmem.setWriteClock(pcb_t);
        pmem.writeValue(addr, entry);
        addr += sizeof(PcbEntry);
        report.controlBlockBytes += sizeof(PcbEntry);
    }

    // Each core finally places its idle task and synchronizes.
    Tick done = walk_done;
    for (std::uint32_t c = 0; c < cores; ++c)
        done = std::max(done, core_done[c] + _costs.idlePlacement);
    return done + _costs.barrier;
}

Tick
Sng::autoStopDevices(Tick when, StopReport &report)
{
    const double quiesce = kern.params().busy
        ? _costs.busyQuiesceFactor : _costs.idleQuiesceFactor;

    Tick t = when;
    mem::Addr dcb_addr = layout.dcbAddr();
    mem::Addr payload_addr = layout.dcbPayloadAddr();
    for (const auto &dev : kern.devices().list()) {
        const kernel::DpmCosts &costs = dev->costs();
        // dpm_prepare / dpm_suspend / dpm_suspend_noirq in list
        // order (dependencies).
        t += costs.prepare;
        t += static_cast<Tick>(
            static_cast<double>(costs.suspend) * quiesce);
        t += costs.suspendNoirq;

        // Device context into its DCB.
        DcbEntry entry;
        entry.cookie = dev->contextCookie();
        entry.contextBytes = dev->contextBytes();
        pmem.setWriteClock(t);
        pmem.writeValue(dcb_addr, entry);
        dcb_addr += sizeof(DcbEntry);
        if (kernel::DeviceContext *ctx = dev->context()) {
            // Real driver state (descriptor rings, queue heads):
            // serialize the image through the durability cursor, so
            // what Go resurrects is exactly what beat the rails.
            ctxScratch.clear();
            ctx->saveContext(ctxScratch);
            if (ctxScratch.size() != dev->contextBytes())
                panic("device '", dev->name(), "' context image is ",
                      ctxScratch.size(), " bytes, declared ",
                      dev->contextBytes());
            t = timed.writeBytes(t, payload_addr, ctxScratch.data(),
                                 ctxScratch.size());
            ++report.contextImagesSaved;
        } else {
            t = timed.writeSpan(t, payload_addr, dev->contextBytes());
        }
        payload_addr += dev->contextBytes();
        report.controlBlockBytes += sizeof(DcbEntry)
            + dev->contextBytes();

        // Peripheral MMIO regions are not on OC-PMEM; copy them.
        const std::uint64_t mmio_lines =
            (dev->mmioBytes() + 63) / 64;
        t += mmio_lines * _costs.mmioReadPer64B;
        t = timed.writeSpan(t, payload_addr, dev->mmioBytes());
        payload_addr += dev->mmioBytes();
        report.controlBlockBytes += dev->mmioBytes();

        dev->setSuspended(true);
        ++report.devicesSuspended;
    }
    report.ctxSaveDone = t;

    // The device-stop phase ends with the master's cache flush.
    if (!caches.empty() && caches[0]) {
        report.dirtyLinesFlushed += caches[0]->dirtyLines();
        t = caches[0]->flushAll(t);
    } else {
        report.dirtyLinesFlushed += fallbackDirtyLines;
        t = timed.writeSpan(t, layout.base,
                            fallbackDirtyLines * mem::cacheLineBytes);
    }
    return t;
}

Tick
Sng::drawEpCut(Tick when, StopReport &report)
{
    const std::uint32_t cores = kern.cores();

    // Clean __cpu_up_task/stack_pointer so Go controls the bring-up
    // sequence instead of finding stale idle-task pointers.
    Tick t = when + Tick(cores) * _costs.cleanPointersPerCore;

    // Workers offline one by one: IPI, cache dump, fence, report.
    for (std::uint32_t c = 1; c < cores; ++c) {
        t += _costs.ipi;
        if (c < caches.size() && caches[c]) {
            report.dirtyLinesFlushed += caches[c]->dirtyLines();
            t = caches[c]->flushAll(t);
        } else {
            report.dirtyLinesFlushed += fallbackDirtyLines;
            t = timed.writeSpan(t, layout.base,
                                fallbackDirtyLines
                                    * mem::cacheLineBytes);
        }
        t += _costs.perWorkerOffline;
    }
    report.workerOfflineDone = t;

    // Master: exception into the bootloader, dump kernel-invisible
    // registers + wear-leveler state into the BCB, record the MEPC,
    // clear the persistent flag, and store the commit. Executed
    // uncached from the bootloader, hence the large constant.
    t += _costs.masterBootloaderConst;

    Bcb bcb;
    bcb.magic = 0;  // the commit store comes last, alone
    bcb.mepc = 0xffffffff80000042ULL;  // kernel-side Go entry
    for (std::size_t i = 0; i < std::size(bcb.machineRegs); ++i)
        bcb.machineRegs[i] = 0xc0de0000 + i;
    bcb.masterRegs = kern.process(0).regs();
    bcb.wearState = psm.saveWearState();
    bcb.cores = cores;
    bcb.processCount =
        static_cast<std::uint32_t>(kern.processCount());
    bcb.deviceCount =
        static_cast<std::uint32_t>(kern.devices().count());

    // BCB body first, with a zero magic: a power cut tearing this
    // write leaves no valid commit behind.
    t = timed.writeBytes(t, layout.bcbAddr(), &bcb, sizeof(Bcb));
    report.controlBlockBytes += sizeof(Bcb);

    kern.setPersistentFlag(false);

    // Memory synchronization: no outstanding request may remain in
    // the PSM or the row buffers before the commit is stored.
    t = psm.flush(t);

    // The commit itself: one atomic 8-byte magic store, issued only
    // after everything it covers is quiescent. The EP-cut exists iff
    // this store beat the rails.
    report.commitStart = t;
    t = timed.writeValue(t, layout.bcbAddr(), epCutMagic);
    report.commitAt = t;
    t = psm.flush(t);
    return t;
}

StopReport
Sng::stop(Tick when, Tick holdup)
{
    StopReport report;
    report.start = when;

    // A finite hold-up is a power cut at when + holdup. Arm the
    // backing store's durability cursor so that *every* byte written
    // after the rails fall out of specification — PCB/DCB prefixes,
    // payloads, the BCB, and the commit — is dropped or torn, not
    // just the commit magic. A cut a campaign armed on the store
    // itself takes precedence.
    const bool arm_here = holdup != maxTick && !pmem.powerCutArmed();
    if (arm_here)
        pmem.armPowerCut(when + holdup,
                         /*torn_seed=*/0x746f726eULL ^ when ^ holdup);

    report.processStopDone = driveToIdle(when, report);
    report.deviceStopDone =
        autoStopDevices(report.processStopDone, report);
    report.offlineDone = drawEpCut(report.deviceStopDone, report);

    if (pmem.powerCutArmed()) {
        report.cutTick = pmem.powerCutTick();
        report.commitFailed = report.commitAt >= report.cutTick;
        report.writesDropped = pmem.cutStats().droppedWrites;
        report.writesTorn = pmem.cutStats().tornWrites;

        const Tick cut = report.cutTick;
        if (cut >= report.commitAt)
            report.cutSubPhase = StopSubPhase::PostCommit;
        else if (cut >= report.commitStart)
            report.cutSubPhase = StopSubPhase::CommitWindow;
        else if (cut >= report.workerOfflineDone)
            report.cutSubPhase = StopSubPhase::BootloaderDump;
        else if (cut >= report.deviceStopDone)
            report.cutSubPhase = StopSubPhase::WorkerOffline;
        else if (cut >= report.ctxSaveDone)
            report.cutSubPhase = StopSubPhase::MasterCacheFlush;
        else if (cut >= report.processStopDone)
            report.cutSubPhase = StopSubPhase::DeviceContextSave;
        else
            report.cutSubPhase = StopSubPhase::DriveToIdle;
    }
    if (arm_here)
        pmem.disarmPowerCut();
    return report;
}

StopReport
Sng::stopVoluntary(Tick when, Tick holdup)
{
    if (!_guard)
        return stop(when, holdup);

    const AdmissionReport adm = _guard->admitStop();
    if (adm.decision == StopAdmission::Defer) {
        StopReport report;
        report.start = when;
        report.deferred = true;
        report.retryAt = adm.retryAfter >= maxTick - when
                             ? maxTick
                             : when + adm.retryAfter;
        report.socAtStop = adm.socFraction;
        report.cutTick = maxTick;
        return report;
    }

    StopReport report = stop(when, holdup);
    report.socAtStop = adm.socFraction;
    return report;
}

GoReport
Sng::resume(Tick when)
{
    using kernel::TaskState;

    GoReport report;
    report.start = when;

    // Bootloader: is this a power recovery or a cold boot?
    Tick t = when + _costs.commitCheck;
    Bcb bcb = pmem.readValue<Bcb>(layout.bcbAddr());
    if (bcb.magic != epCutMagic) {
        report.coldBoot = true;
        report.bcbRestored = report.coresUp = report.devicesResumed =
            report.thawDone = report.commitClearAt = report.done = t;
        if (pmem.powerCutArmed())
            report.cutTick = pmem.powerCutTick();
        return report;
    }

    // Restore bootloader/kernel registers and the wear-leveler.
    t += _costs.bcbRestore;
    t = timed.readSpan(t, layout.bcbAddr(), sizeof(Bcb));
    psm.restoreWearState(bcb.wearState);
    kern.process(0).regs() = bcb.masterRegs;
    report.bcbRestored = t;

    // Power up the workers one by one; they spin on the cleaned
    // kernel task pointers until the master places idle tasks.
    const std::uint32_t cores = kern.cores();
    for (std::uint32_t c = 1; c < cores; ++c)
        t += _costs.powerUpWorker + _costs.ipi;
    report.coresUp = t;

    // Revive devices in inverse dpm order: dpm_resume_noirq,
    // dpm_resume, dpm_complete, plus DCB reads and MMIO restores.
    // The payload offsets mirror autoStopDevices exactly: context
    // image then MMIO copy per device, packed after the DCB array.
    const auto &devices = kern.devices().list();
    std::vector<mem::Addr> payload_off(devices.size());
    {
        mem::Addr off = layout.dcbPayloadAddr();
        report.payloadBase = off;
        for (std::size_t i = 0; i < devices.size(); ++i) {
            payload_off[i] = off;
            off += devices[i]->contextBytes()
                + devices[i]->mmioBytes();
        }
        report.payloadEnd = off;
    }
    mem::Addr dcb_addr = layout.dcbAddr()
        + devices.size() * sizeof(DcbEntry);
    for (std::size_t i = devices.size(); i-- > 0;) {
        kernel::Device &dev = *devices[i];
        dcb_addr -= sizeof(DcbEntry);
        const DcbEntry entry = pmem.readValue<DcbEntry>(dcb_addr);
        // The volatile-side cookie is garbage after a real power
        // loss; the DCB copy is authoritative.
        dev.setContextCookie(entry.cookie);

        const kernel::DpmCosts &costs = dev.costs();
        t += costs.resumeNoirq + costs.resume + costs.complete;
        t = timed.readSpan(t, dcb_addr, sizeof(DcbEntry));
        // Driver context from the payload region where Auto-Stop
        // serialized it (not from the DCB entry array).
        if (kernel::DeviceContext *ctx = dev.context()) {
            // The volatile rings are garbage after a real power
            // loss; the durable DCB image is authoritative.
            ctxScratch.resize(dev.contextBytes());
            t = timed.readBytes(t, payload_off[i], ctxScratch.data(),
                                ctxScratch.size());
            ctx->restoreContext(ctxScratch.data(), ctxScratch.size());
            ++report.contextImagesRestored;
        } else {
            t = timed.readSpan(t, payload_off[i], dev.contextBytes());
        }
        // The saved MMIO image: read back from OC-PMEM, then
        // replayed into the peripheral with uncached stores.
        t = timed.readSpan(t, payload_off[i] + dev.contextBytes(),
                           dev.mmioBytes());
        const std::uint64_t mmio_lines = (dev.mmioBytes() + 63) / 64;
        t += mmio_lines * _costs.mmioReadPer64B;
        report.payloadBytesRead +=
            dev.contextBytes() + dev.mmioBytes();
        dev.setSuspended(false);
        ++report.devicesRevived;
    }
    report.devicesResumed = t;

    // Restore every PCB from OC-PMEM and reschedule: kernel tasks
    // first, then user tasks, flipping TASK_UNINTERRUPTIBLE back to
    // TASK_NORMAL and rebuilding the per-core run queues.
    mem::Addr addr = layout.pcbAddr();
    std::vector<PcbEntry> entries(kern.processCount());
    for (auto &entry : entries) {
        entry = pmem.readValue<PcbEntry>(addr);
        addr += sizeof(PcbEntry);
    }

    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < kern.processCount(); ++i) {
            kernel::Process &proc = kern.process(i);
            const bool kernel_pass = pass == 0;
            if (proc.isKernelThread() != kernel_pass)
                continue;
            const PcbEntry &entry = entries[i];
            if (entry.pid != proc.pid())
                warn("PCB order mismatch for pid ", proc.pid());
            proc.regs() = entry.regs;
            if (static_cast<TaskState>(entry.state)
                == TaskState::Uninterruptible) {
                proc.setState(TaskState::Runnable);
                std::uint32_t cpu = entry.cpu < 0
                    ? 0 : static_cast<std::uint32_t>(entry.cpu)
                        % cores;
                proc.setCpu(static_cast<int>(cpu));
                kern.runQueue(cpu).push_back(&proc);
                t += _costs.scheduleTask;
                ++report.tasksScheduled;
            }
        }
    }
    t += Tick(cores) * _costs.tlbFlushPerCore;
    report.thawDone = t;

    // Clear the commit: the next boot without a new EP-cut is cold.
    // This atomic store is the resume's linearization point — if a
    // power cut drops it, the durable EP-cut stays valid and the
    // next boot re-runs this exact Go (resume is idempotent because
    // everything before this line only *reads* OC-PMEM).
    t = timed.writeValue(t, layout.bcbAddr(), std::uint64_t(0));
    report.commitClearAt = t;

    report.done = t;

    if (pmem.powerCutArmed()) {
        report.cutTick = pmem.powerCutTick();
        report.interrupted = report.commitClearAt >= report.cutTick;

        // The commit-clear store completes at done; it is durable
        // (the resume converged) only when the cut is strictly
        // after it, so Complete matches !interrupted exactly.
        const Tick cut = report.cutTick;
        if (cut > report.done)
            report.cutSubPhase = GoSubPhase::Complete;
        else if (cut >= report.thawDone)
            report.cutSubPhase = GoSubPhase::CommitClear;
        else if (cut >= report.devicesResumed)
            report.cutSubPhase = GoSubPhase::ProcessThaw;
        else if (cut >= report.coresUp)
            report.cutSubPhase = GoSubPhase::DeviceRestore;
        else if (cut >= report.bcbRestored)
            report.cutSubPhase = GoSubPhase::CoreBringup;
        else
            report.cutSubPhase = GoSubPhase::BcbRestore;
    }
    return report;
}

AbortReport
Sng::abortStop(Tick when)
{
    using kernel::TaskState;

    AbortReport report;
    report.start = when;

    // Devices revive in inverse dpm order from their *live* volatile
    // state: the rails never fell, so nothing was lost and no DCB
    // payload read is needed.
    Tick t = when;
    const auto &devices = kern.devices().list();
    for (std::size_t i = devices.size(); i-- > 0;) {
        kernel::Device &dev = *devices[i];
        if (!dev.suspended())
            continue;
        const kernel::DpmCosts &costs = dev.costs();
        t += costs.resumeNoirq + costs.resume + costs.complete;
        dev.setSuspended(false);
        ++report.devicesRevived;
    }
    report.devicesResumed = t;

    // Parked tasks flip straight back onto their run queues; their
    // registers still live in the (never powered-down) PCBs.
    const std::uint32_t cores = kern.cores();
    for (std::size_t i = 0; i < kern.processCount(); ++i) {
        kernel::Process &proc = kern.process(i);
        if (proc.state() != TaskState::Uninterruptible)
            continue;
        proc.setState(TaskState::Runnable);
        const std::uint32_t cpu = proc.cpu() < 0
            ? 0 : static_cast<std::uint32_t>(proc.cpu()) % cores;
        proc.setCpu(static_cast<int>(cpu));
        kern.runQueue(cpu).push_back(&proc);
        t += _costs.scheduleTask;
        ++report.tasksUnparked;
    }

    kern.setPersistentFlag(false);

    // An EP-cut the aborted Stop already committed describes a
    // machine state the resumed execution immediately diverges from;
    // leaving it would let a later cold boot resurrect a stale past.
    if (hasCommit()) {
        invalidateCommit(t);
        report.commitCleared = true;
    }

    report.done = t;
    return report;
}

} // namespace lightpc::pecos
