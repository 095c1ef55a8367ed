/**
 * @file
 * Identifier enums shared by the provenance tracer and its producers.
 *
 * Split out of provenance.hh so low-level headers (energy/account.hh
 * tags its per-structure rows with a ProvStruct) can name the ids
 * without pulling in the sink, histograms, or any I/O.
 */

#ifndef EAT_OBS_PROV_IDS_HH
#define EAT_OBS_PROV_IDS_HH

#include <cstdint>
#include <string_view>

namespace eat::obs
{

/**
 * Every energy-bearing structure of the translation datapath.
 *
 * The first kProvMeteredStructs ids index core::Mmu's meter table, one
 * row per structure; a new metered structure is one entry here plus
 * one table row. Enum order is the order core::Mmu::dynamicEnergyTotal()
 * sums the meters, and reconciliation reproduces that sum by adding
 * per-structure totals in the same order, which keeps the IEEE-double
 * result bit-identical. Add new structures just before Shootdown: their
 * meters read 0.0 in runs that do not use them, so existing sums stay
 * bit-identical.
 */
enum class ProvStruct : std::uint8_t
{
    L1Tlb4K,      ///< L1 4KB / mixed / combined page TLB
    L1Tlb2M,
    L1Tlb1G,
    L2Tlb,
    L1Range,
    L2Range,
    PwcPde,
    PwcPdpte,
    PwcPml4,
    WalkMem,      ///< page-walk memory references
    RangeWalkMem, ///< range-table-walk memory references
    HostPwc,      ///< host (EPT) paging-structure cache, lumped probe
    HostWalkMem,  ///< host-walk memory references (nested paging)
    L3Tlb,        ///< cache-resident L3 TLB (--l3=cache)
    DramTlb,      ///< in-DRAM TLB incl. its SRAM tag cache (--l3=dram)
    Shootdown,    ///< IPI broadcast cost (outside dynamicEnergyTotal)
    Coherence,    ///< hw-coherence filter probe (outside the sum too)
    None,         ///< control events with no structure
    Count
};

/** Number of structures carrying dynamic energy (meter-backed). */
inline constexpr unsigned kProvMeteredStructs =
    static_cast<unsigned>(ProvStruct::Shootdown);

/** Short stable token used in JSONL ("l1_tlb_4k", ...). */
std::string_view provStructName(ProvStruct s);

/** Parse a provStructName() token; ProvStruct::Count when unknown. */
ProvStruct provStructFromName(std::string_view name);

/** What one provenance event records. */
enum class ProvKind : std::uint8_t
{
    Probe,       ///< a TLB / PWC lookup charged read energy
    Fill,        ///< a TLB / PWC install charged write energy
    Evict,       ///< a fill displaced a live entry (no energy)
    WalkRef,     ///< one page/range-walk memory reference
    Resize,      ///< Lite changed a TLB's active-way mask
    Interval,    ///< telemetry interval boundary marker
    Shootdown,   ///< initiator-side shootdown broadcast charge
    Translation, ///< one translation's closing record
    CohProbe,    ///< initiator-side hw-coherence filter probe charge
    Count
};

std::string_view provKindName(ProvKind k);

/** Parse a provKindName() token; ProvKind::Count when unknown. */
ProvKind provKindFromName(std::string_view name);

} // namespace eat::obs

#endif // EAT_OBS_PROV_IDS_HH
