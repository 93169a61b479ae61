#include "boot/plaintext_store.h"

#include <algorithm>

#include "common/logging.h"
#include "rns/backend.h"

namespace ark {

size_t
PlaintextStore::insert(const Plaintext &pt)
{
    Entry e;
    e.scale = pt.scale;
    e.level = pt.level;
    if (mode_ == PlaintextMode::Full) {
        e.poly = pt.poly;
    } else {
        // Keep only the q0-limb, in the coefficient representation.
        RnsPoly coeff = pt.poly;
        if (coeff.rep() == Rep::Eval)
            ctx_.backend().nttInverse(coeff, ctx_.qTables());
        e.poly = RnsPoly(ctx_.degree(), 1, Rep::Coeff);
        std::copy(coeff.limb(0), coeff.limb(0) + ctx_.degree(),
                  e.poly.limb(0));
    }
    entries_.push_back(std::move(e));
    return entries_.size() - 1;
}

Plaintext
PlaintextStore::get(size_t idx, int level) const
{
    ARK_ASSERT(idx < entries_.size(), "plaintext index out of range");
    const Entry &e = entries_[idx];
    KernelBackend &kb = ctx_.backend();
    Plaintext pt;
    pt.scale = e.scale;
    pt.level = level;

    const size_t n = ctx_.degree();
    const size_t limbs = static_cast<size_t>(level) + 1;
    if (mode_ == PlaintextMode::Full) {
        ARK_ASSERT(level <= e.level,
                   "full-mode plaintext stored at a lower level");
        // ModDown is free limb dropping: copy only the limbs in use.
        pt.poly = kb.pool().acquire(n, limbs, e.poly.rep());
        kb.copyLimbs(e.poly, 0, pt.poly, 0, limbs);
        // Full-mode plaintexts stream every limb from storage.
        kb.notePlaintextWords(static_cast<u64>(limbs) * n);
        return pt;
    }

    // OF-Limb extension (Eq. 12): center the q0 residue and reduce it
    // into every current limb, NTT-ing each generated limb in the same
    // job. Only the stored q0 limb streams from storage; the rest is
    // runtime data generation. Pooled: every word is written.
    kb.notePlaintextWords(n);
    pt.poly = kb.pool().acquire(n, limbs, Rep::Eval);
    kb.embedNtt(e.poly.limb(0), ctx_.qModuli()[0], ctx_.qTablePtrs(limbs),
                pt.poly);
    return pt;
}

size_t
PlaintextStore::storedBytes() const
{
    size_t total = 0;
    for (const auto &e : entries_)
        total += e.poly.byteSize();
    return total;
}

} // namespace ark
