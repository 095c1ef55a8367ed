#include "workloads/pattern.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eat::workloads
{

namespace
{

/** Align generated addresses to 8 bytes (word accesses). */
constexpr Addr
wordAlign(Addr a)
{
    return a & ~Addr{7};
}

/**
 * The integer pick thresholds of @p weights: UnitThreshold::atMost of
 * each CDF entry but the last (which is 1 and catches every draw).
 */
std::vector<std::uint64_t>
buildCuts(const std::vector<double> &weights)
{
    eat_assert(!weights.empty(), "empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        eat_assert(w >= 0.0, "negative weight");
        total += w;
    }
    eat_assert(total > 0.0, "all weights zero");
    std::vector<std::uint64_t> cuts;
    cuts.reserve(weights.size() - 1);
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
        acc += weights[i] / total;
        cuts.push_back(UnitThreshold::atMost(std::min(acc, 1.0)));
    }
    return cuts;
}

std::size_t
pick(const std::vector<std::uint64_t> &cuts, Rng &rng)
{
    // The first bucket whose CDF entry is >= real(): the CDF is sorted,
    // so that is the number of entries below the draw, counted without
    // branches over the integer thresholds.
    const std::uint64_t k = rng.bits53();
    std::size_t i = 0;
    for (const std::uint64_t cut : cuts)
        i += k > cut;
    return i;
}

} // namespace

// --------------------------------------------------------------------- Span

Span::Span(std::vector<Extent> extents) : extents_(std::move(extents))
{
    starts_.reserve(extents_.size());
    for (const auto &e : extents_) {
        eat_assert(e.bytes > 0, "empty extent in span");
        starts_.push_back(total_);
        total_ += e.bytes;
    }
}

Span
Span::fromRegions(const std::vector<vm::Region> &regions)
{
    std::vector<Extent> extents;
    extents.reserve(regions.size());
    for (const auto &r : regions)
        extents.push_back({r.vbase, r.bytes});
    return Span(std::move(extents));
}

Addr
Span::addrAt(std::uint64_t offset) const
{
    eat_assert(offset < total_, "span offset out of bounds");
    // Offsets arrive with the pattern's locality, so the extent that
    // served the previous call usually serves this one; fall back to
    // the binary search only when the memo misses.
    const std::size_t last = lastExtent_;
    if (offset >= starts_[last] &&
        offset - starts_[last] < extents_[last].bytes) {
        return extents_[last].base + (offset - starts_[last]);
    }
    // Branchless search for the last extent starting at or below the
    // offset (starts_[0] is 0, so there always is one).
    const std::uint64_t *first = starts_.data();
    std::size_t n = starts_.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        first = first[half] <= offset ? first + half : first;
        n -= half;
    }
    const auto idx = static_cast<std::size_t>(first - starts_.data());
    lastExtent_ = idx;
    return extents_[idx].base + (offset - starts_[idx]);
}

// ------------------------------------------------------- UniformRandom

UniformRandomPattern::UniformRandomPattern(Span span) : span_(std::move(span))
{
    eat_assert(!span_.empty(), "uniform pattern over empty span");
}

Addr
UniformRandomPattern::next(Rng &rng, InstrCount)
{
    return wordAlign(span_.addrAt(rng.below(span_.bytes())));
}

// ----------------------------------------------------------- WorkingSet

WorkingSetPattern::WorkingSetPattern(Span span, std::vector<WsLevel> levels)
    : span_(std::move(span))
{
    eat_assert(!span_.empty(), "working-set pattern over empty span");
    eat_assert(!levels.empty(), "working-set pattern needs levels");
    std::vector<double> weights;
    for (const auto &l : levels) {
        bytes_.push_back(std::min<std::uint64_t>(l.bytes, span_.bytes()));
        eat_assert(bytes_.back() > 0, "zero-byte working-set level");
        weights.push_back(l.weight);
    }
    cuts_ = buildCuts(weights);
}

Addr
WorkingSetPattern::next(Rng &rng, InstrCount)
{
    return wordAlign(span_.addrAt(rng.below(bytes_[pick(cuts_, rng)])));
}

// ----------------------------------------------------------- Sequential

SequentialPattern::SequentialPattern(Span span, std::uint64_t strideBytes)
    : span_(std::move(span))
{
    eat_assert(!span_.empty(), "sequential pattern over empty span");
    eat_assert(strideBytes > 0, "zero stride");
    strideMod_ = strideBytes % span_.bytes();
}

Addr
SequentialPattern::next(Rng &, InstrCount)
{
    const Addr a = span_.addrAt(cursor_);
    // cursor_ and strideMod_ are both below the span size, so one
    // conditional subtract reduces their sum.
    cursor_ += strideMod_;
    if (cursor_ >= span_.bytes())
        cursor_ -= span_.bytes();
    return wordAlign(a);
}

// -------------------------------------------------------------- Strided

StridedPattern::StridedPattern(Span span, std::uint64_t strideBytes)
    : span_(std::move(span)), stride_(strideBytes)
{
    eat_assert(!span_.empty(), "strided pattern over empty span");
    eat_assert(stride_ > 0, "zero stride");
}

Addr
StridedPattern::next(Rng &, InstrCount)
{
    // cursor_ and phaseMod_ are both below the span size.
    std::uint64_t offset = cursor_ + phaseMod_;
    if (offset >= span_.bytes())
        offset -= span_.bytes();
    const Addr a = span_.addrAt(offset);
    cursor_ += stride_;
    if (cursor_ >= span_.bytes()) {
        cursor_ = 0;
        phase_ = (phase_ + 64) % stride_; // next sweep, next element
        phaseMod_ = phase_ % span_.bytes();
    }
    return wordAlign(a);
}

// ------------------------------------------------------------ LocalWalk

LocalWalkPattern::LocalWalkPattern(Span span, std::uint64_t maxStepBytes,
                                   double jumpProbability)
    : span_(std::move(span)), maxStep_(maxStepBytes), jump_(jumpProbability)
{
    eat_assert(!span_.empty(), "local-walk pattern over empty span");
    eat_assert(maxStep_ > 0, "zero step bound");
    maxStep_ = std::min<std::uint64_t>(maxStep_, span_.bytes() - 1);
    maxStep_ = std::max<std::uint64_t>(maxStep_, 1);
}

Addr
LocalWalkPattern::next(Rng &rng, InstrCount)
{
    if (jump_(rng)) {
        pos_ = rng.below(span_.bytes());
    } else {
        const std::uint64_t step = rng.below(2 * maxStep_ + 1);
        const std::uint64_t size = span_.bytes();
        // Signed step in [-maxStep_, +maxStep_], wrapped over the span:
        // pos_ < size and maxStep_ <= size, so the sum is below
        // 3 * size and two conditional subtracts reduce it.
        pos_ = pos_ + size + step - maxStep_;
        if (pos_ >= size)
            pos_ -= size;
        if (pos_ >= size)
            pos_ -= size;
    }
    return wordAlign(span_.addrAt(pos_));
}

// -------------------------------------------------------- RegionHotset

RegionHotsetPattern::RegionHotsetPattern(std::vector<vm::Region> regions,
                                         std::size_t hotRegions,
                                         double hotProb,
                                         std::uint64_t windowBytes)
    : hotRegions_(std::min(hotRegions, regions.size())), hot_(hotProb)
{
    eat_assert(!regions.empty(), "region hotset over no regions");
    eat_assert(hotRegions_ >= 1, "need at least one hot region");
    windows_.reserve(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const auto &r = regions[i];
        const std::uint64_t bytes =
            windowBytes == 0 ? r.bytes : std::min(windowBytes, r.bytes);
        windows_.push_back({r.vbase + windowOffset(i, r.bytes, bytes), bytes});
    }
}

std::uint64_t
RegionHotsetPattern::windowOffset(std::size_t i, std::uint64_t regionBytes,
                                  std::uint64_t windowBytes)
{
    if (windowBytes >= regionBytes)
        return 0;
    const std::uint64_t room = regionBytes - windowBytes;
    // Page-aligned golden-ratio-ish stagger: regions are 2 MB aligned,
    // so identical offsets would alias into identical TLB sets.
    const std::uint64_t offset = (i * 37 + 11) * 4096;
    return (offset % (room + 1)) & ~std::uint64_t{4095};
}

Addr
RegionHotsetPattern::next(Rng &rng, InstrCount)
{
    const std::size_t count = hot_(rng) ? hotRegions_ : windows_.size();
    const auto &w = windows_[rng.below(count)];
    return wordAlign(w.base + rng.below(w.bytes));
}

// -------------------------------------------------------------- Mixture

MixturePattern::MixturePattern(std::vector<PatternPtr> children,
                               std::vector<double> weights)
    : children_(std::move(children)), cuts_(buildCuts(weights))
{
    eat_assert(!children_.empty(), "mixture with no children");
    eat_assert(children_.size() == weights.size(),
               "mixture weights/children size mismatch");
    for (const auto &c : children_)
        eat_assert(c != nullptr, "null mixture child");
}

Addr
MixturePattern::next(Rng &rng, InstrCount now)
{
    return children_[pick(cuts_, rng)]->next(rng, now);
}

// --------------------------------------------------------------- Phased

PhasedPattern::PhasedPattern(std::vector<PatternPtr> children,
                             InstrCount phaseInstructions)
    : children_(std::move(children)), phaseLen_(phaseInstructions)
{
    eat_assert(!children_.empty(), "phased pattern with no children");
    eat_assert(phaseLen_ > 0, "zero phase length");
    for (const auto &c : children_)
        eat_assert(c != nullptr, "null phase child");
}

Addr
PhasedPattern::next(Rng &rng, InstrCount now)
{
    // The clock usually stays inside the cached phase; recompute only
    // when it leaves it (in either direction: the unsigned difference
    // wraps when now is below the phase start).
    if (now - phaseStart_ >= phaseLen_) {
        const InstrCount index = now / phaseLen_;
        phase_ = static_cast<std::size_t>(index % children_.size());
        phaseStart_ = index * phaseLen_;
    }
    return children_[phase_]->next(rng, now);
}

} // namespace eat::workloads
