#include "sim/machine_flags.hh"

#include <limits>

#include "base/parse.hh"
#include "vm/host_table.hh"

namespace eat::sim
{

bool
MachineFlags::consume(std::string_view arg)
{
    auto take = [arg](std::string_view prefix, auto &out) {
        if (arg.substr(0, prefix.size()) != prefix)
            return false;
        out = std::string(arg.substr(prefix.size()));
        return true;
    };
    if (arg == "--vm") {
        vm = true;
        vmMode = "paged";
        return true;
    }
    if (take("--vm=", vmMode)) {
        vm = true;
        return true;
    }
    return take("--host-pages=", hostPages) || take("--l3=", l3) ||
           take("--l3-policy=", l3Policy) ||
           take("--l3-promote-streak=", l3PromoteStreak) ||
           take("--coherence=", coherence);
}

void
Machine::applyTo(core::MmuConfig &mmu) const
{
    if (vmEnabled) {
        mmu.vmEnabled = true;
        mmu.vmIdentityHost = vmIdentityHost;
        mmu.hostPageSize = hostPageSize;
    }
    if (l3Mode != l3::L3Mode::None) {
        mmu.l3Cache.policy = l3Policy;
        if (l3PromoteStreak > 0)
            mmu.l3Cache.promoteStreak = l3PromoteStreak;
        mmu.enableL3(l3Mode);
    }
}

Result<Machine>
validateMachineFlags(const MachineFlags &flags, bool multicore)
{
    Machine m;
    if (flags.vm) {
        const auto mode = vm::hostModeFromName(flags.vmMode);
        if (!mode.ok())
            return Status::error("--vm: ", mode.status().message());
        m.vmEnabled = true;
        m.vmIdentityHost = mode.value() == vm::HostMode::Identity;
    }
    if (!flags.hostPages.empty()) {
        if (!flags.vm)
            return Status::error("--host-pages requires --vm");
        const auto size = vm::hostPageSizeFromName(flags.hostPages);
        if (!size.ok())
            return Status::error("--host-pages: ", size.status().message());
        m.hostPageSize = size.value();
    }
    // Orphaned L3 tuning flags describe nothing: reject them rather
    // than silently run a different machine than the user asked for.
    if (!flags.l3.empty()) {
        const auto mode = l3::l3ModeFromName(flags.l3);
        if (!mode.ok())
            return Status::error("--l3: ", mode.status().message());
        m.l3Mode = mode.value();
    }
    if (!flags.l3Policy.empty()) {
        if (m.l3Mode != l3::L3Mode::Cache)
            return Status::error("--l3-policy requires --l3=cache");
        const auto policy = l3::l3InsertPolicyFromName(flags.l3Policy);
        if (!policy.ok())
            return Status::error("--l3-policy: ", policy.status().message());
        m.l3Policy = policy.value();
    }
    if (flags.l3PromoteStreak) {
        const auto streak = parseU64(*flags.l3PromoteStreak);
        if (!streak.ok()) {
            return Status::error("--l3-promote-streak: ",
                                 streak.status().message());
        }
        if (m.l3Policy != l3::L3InsertPolicy::PtePromote) {
            return Status::error(
                "--l3-promote-streak requires --l3-policy=promote");
        }
        if (streak.value() == 0)
            return Status::error("--l3-promote-streak: must be positive");
        if (streak.value() > std::numeric_limits<unsigned>::max())
            return Status::error("--l3-promote-streak: out of range");
        m.l3PromoteStreak = static_cast<unsigned>(streak.value());
    }
    if (!flags.coherence.empty()) {
        const auto mode = mc::coherenceModeFromName(flags.coherence);
        if (!mode.ok())
            return Status::error("--coherence: ", mode.status().message());
        if (!multicore)
            return Status::error("--coherence requires --cores/--mix");
        m.coherence = mode.value();
    }
    return m;
}

} // namespace eat::sim
