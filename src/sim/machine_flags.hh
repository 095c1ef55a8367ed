/**
 * @file
 * The machine flags eatsim and eatbatch share: nested paging (--vm,
 * --host-pages), the L3 translation tier (--l3, --l3-policy,
 * --l3-promote-streak) and the remap-coherence model (--coherence).
 * One parser and one validator hold their syntax and the rules that
 * tie them together ("--host-pages requires --vm", ...), so both tools
 * accept and reject exactly the same machines with the same messages.
 */

#ifndef EAT_SIM_MACHINE_FLAGS_HH
#define EAT_SIM_MACHINE_FLAGS_HH

#include <optional>
#include <string>
#include <string_view>

#include "base/status.hh"
#include "l3/l3_config.hh"
#include "mc/mc_simulator.hh"
#include "vm/page_size.hh"

namespace eat::sim
{

/** The machine flags as typed. An empty string means "not given";
 *  the streak is optional because an empty streak is a parse error. */
struct MachineFlags
{
    bool vm = false;     ///< --vm or --vm=MODE was given
    std::string vmMode;  ///< "paged" for a bare --vm
    std::string hostPages;
    std::string l3;
    std::string l3Policy;
    std::optional<std::string> l3PromoteStreak;
    std::string coherence;

    /** Take @p arg when it is one of the machine flags.
     *  @return true when @p arg was taken. */
    bool consume(std::string_view arg);
};

/** A validated machine: the knobs layered onto an org's MmuConfig. */
struct Machine
{
    /** Layer the nested-paging and L3-tier knobs onto @p mmu. */
    void applyTo(core::MmuConfig &mmu) const;

    bool vmEnabled = false;
    bool vmIdentityHost = false;
    vm::PageSize hostPageSize = vm::PageSize::Size4K;
    l3::L3Mode l3Mode = l3::L3Mode::None;
    l3::L3InsertPolicy l3Policy = l3::L3InsertPolicy::WalkFill;
    unsigned l3PromoteStreak = 0; ///< 0 keeps the config default
    mc::McConfig::CoherenceMode coherence =
        mc::McConfig::CoherenceMode::Ipi;
};

/**
 * Parse and cross-check @p flags. @p multicore says whether the run
 * has --cores/--mix. On error the message is the complete line the
 * tools print before exiting with code 2.
 */
Result<Machine> validateMachineFlags(const MachineFlags &flags,
                                     bool multicore);

} // namespace eat::sim

#endif // EAT_SIM_MACHINE_FLAGS_HH
