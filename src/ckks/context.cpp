#include "ckks/context.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "rns/primes.h"

namespace ark {

CkksContext::CkksContext(CkksParams params)
    : params_(std::move(params)),
      backend_(makeKernelBackend(
          backendKindFromEnv(params_.backend),
          backendThreadsFromEnv(params_.backend_threads)))
{
    const size_t n = params_.degree;
    const int L = params_.max_level;
    const int a = params_.alpha();
    ARK_ASSERT((L + 1) % params_.dnum == 0,
               "dnum must divide L + 1 (paper Table I)");

    // q0 is generated at log_q0 bits; q1..qL near the scale; specials at
    // log_special bits for error headroom.
    std::vector<u64> qs;
    qs.push_back(generateFirstPrime(params_.log_q0, n));
    auto scale_primes =
        generatePrimes(params_.log_scale, L, n, qs);
    qs.insert(qs.end(), scale_primes.begin(), scale_primes.end());
    auto special_primes = generatePrimes(params_.log_special, a, n, qs);

    for (u64 q : qs) {
        q_moduli_.emplace_back(q);
        q_tables_.emplace_back(n, Modulus(q));
    }
    for (u64 p : special_primes) {
        p_moduli_.emplace_back(p);
        p_tables_.emplace_back(n, Modulus(p));
    }

    // Gadget constants for generalized key-switching (Alg. 2):
    // g_i = (Q / Q_i) * [(Q / Q_i)^{-1}]_{Q_i} mod every prime of D.
    // mod q in C_i this is 1; mod q in C \ C_i it is 0; mod the special
    // primes it is a full product.
    gadget_.resize(params_.dnum);
    for (int d = 0; d < params_.dnum; ++d) {
        auto &g = gadget_[d];
        g.resize(q_moduli_.size() + p_moduli_.size());

        const size_t digit_lo = static_cast<size_t>(d) * a;
        const size_t digit_hi = digit_lo + a;

        // For each target modulus m: compute Qhat_d mod m (product of q
        // primes outside the digit) and multiply by the CRT inverse
        // factor per digit prime. We need [Qhat_d^{-1}]_{Q_d} as an
        // integer mod Q_d, which we carry in RNS over the digit primes
        // and recombine with the digit CRT:
        //   g_d = sum_{j in digit} Qhat_d * qhat_j * c_j  with
        //   c_j = [(Qhat_d * qhat_j)^{-1}]_{q_j},
        // where qhat_j = Q_d / q_j. Each summand is a pure integer we
        // can reduce mod m factor-by-factor.
        auto add_all = [&](auto &&fn) {
            for (size_t m = 0; m < g.size(); ++m) {
                const Modulus &mod = m < q_moduli_.size()
                                         ? q_moduli_[m]
                                         : p_moduli_[m - q_moduli_.size()];
                g[m] = fn(mod);
            }
        };

        add_all([&](const Modulus &mod) {
            u64 acc = 0;
            for (size_t j = digit_lo; j < digit_hi; ++j) {
                // c_j = inverse mod q_j of (prod of all q primes != q_j).
                const Modulus &qj = q_moduli_[j];
                u64 prod_mod_qj = 1;
                for (size_t k = 0; k < q_moduli_.size(); ++k) {
                    if (k != j)
                        prod_mod_qj = qj.mul(
                            prod_mod_qj, q_moduli_[k].value() % qj.value());
                }
                u64 cj = qj.inv(prod_mod_qj);
                // term = (prod of all q primes != q_j) * c_j mod m.
                u64 term = cj % mod.value();
                for (size_t k = 0; k < q_moduli_.size(); ++k) {
                    if (k != j)
                        term = mod.mul(term,
                                       q_moduli_[k].value() % mod.value());
                }
                acc = mod.add(acc, term);
            }
            return acc;
        });
    }

    // P mod q_i and P^{-1} mod q_i.
    p_mod_q_.resize(q_moduli_.size());
    p_inv_mod_q_.resize(q_moduli_.size());
    for (size_t i = 0; i < q_moduli_.size(); ++i) {
        const Modulus &qi = q_moduli_[i];
        u64 pm = 1;
        for (const auto &p : p_moduli_)
            pm = qi.mul(pm, p.value() % qi.value());
        p_mod_q_[i] = pm;
        p_inv_mod_q_[i] = qi.inv(pm);
    }

    // Rescale constants: q_level^{-1} mod q_i.
    q_last_inv_.resize(L + 1);
    for (int lv = 1; lv <= L; ++lv) {
        q_last_inv_[lv].resize(lv);
        for (int i = 0; i < lv; ++i) {
            const Modulus &qi = q_moduli_[i];
            q_last_inv_[lv][i] =
                qi.inv(q_moduli_[lv].value() % qi.value());
        }
    }

    // q_j mod q_i matrix (ModRaise and misc.).
    const size_t nq = q_moduli_.size();
    q_mod_q_.resize(nq * nq);
    for (size_t j = 0; j < nq; ++j) {
        for (size_t i = 0; i < nq; ++i)
            q_mod_q_[j * nq + i] = q_moduli_[j].value() %
                                   q_moduli_[i].value();
    }

    // Let each pool stripe keep one top-level key switch's temporaries
    // — the dnum extended digits, two accumulators, the tensor's three
    // and ModDown's two level-sized polys, and the alpha-limb BConv
    // scratch — so steady-state ops recycle all of them instead of
    // returning most to the heap and faulting them in again.
    const size_t ext = nq + static_cast<size_t>(a);
    const size_t per_key = static_cast<size_t>(params_.dnum) + 2;
    backend_->pool().reserve(n * (per_key * ext + 5 * nq + a), per_key);
}

std::vector<Modulus>
CkksContext::levelModuli(int level) const
{
    ARK_ASSERT(level >= 0 && level <= maxLevel(), "bad level");
    return {q_moduli_.begin(), q_moduli_.begin() + level + 1};
}

std::vector<Modulus>
CkksContext::keyModuli(int level) const
{
    auto v = levelModuli(level);
    v.insert(v.end(), p_moduli_.begin(), p_moduli_.end());
    return v;
}

const NttTables &
CkksContext::keyTable(size_t limb, int level) const
{
    const size_t nq = static_cast<size_t>(level) + 1;
    if (limb < nq)
        return q_tables_[limb];
    return p_tables_[limb - nq];
}

int
CkksContext::numDigits(int level) const
{
    return (level + alpha()) / alpha(); // ceil((level+1)/alpha)
}

const Automorphism &
CkksContext::automorphism(u64 galois_elt) const
{
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = auto_cache_.find(galois_elt);
    if (it == auto_cache_.end()) {
        it = auto_cache_
                 .emplace(galois_elt, std::make_unique<Automorphism>(
                                          galois_elt, params_.degree))
                 .first;
    }
    return *it->second;
}

const std::vector<const NttTables *> &
CkksContext::qTablePtrs(size_t count) const
{
    ARK_ASSERT(count <= q_tables_.size(), "not enough q tables");
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = q_table_ptrs_cache_.find(count);
    if (it == q_table_ptrs_cache_.end()) {
        std::vector<const NttTables *> ptrs(count);
        for (size_t l = 0; l < count; ++l)
            ptrs[l] = &q_tables_[l];
        it = q_table_ptrs_cache_.emplace(count, std::move(ptrs)).first;
    }
    return it->second;
}

const std::vector<const NttTables *> &
CkksContext::keyTablePtrs(int level) const
{
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = key_table_ptrs_cache_.find(level);
    if (it == key_table_ptrs_cache_.end()) {
        const size_t nq = static_cast<size_t>(level) + 1;
        std::vector<const NttTables *> ptrs(nq + p_tables_.size());
        for (size_t l = 0; l < ptrs.size(); ++l)
            ptrs[l] = &keyTable(l, level);
        it = key_table_ptrs_cache_.emplace(level, std::move(ptrs)).first;
    }
    return it->second;
}

const BaseConverter &
CkksContext::digitConverter(int level, int digit) const
{
    const auto key = std::make_pair(level, digit);
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = digit_bconv_cache_.find(key);
    if (it != digit_bconv_cache_.end())
        return *it->second;

    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t a = static_cast<size_t>(alpha());
    const size_t lo = static_cast<size_t>(digit) * a;
    const size_t hi = std::min(lo + a, nq);
    ARK_ASSERT(lo < nq, "digit out of range for this level");

    std::vector<Modulus> in_base(q_moduli_.begin() + lo,
                                 q_moduli_.begin() + hi);
    std::vector<Modulus> out_base;
    for (size_t l = 0; l < nq; ++l) {
        if (l < lo || l >= hi)
            out_base.push_back(q_moduli_[l]);
    }
    out_base.insert(out_base.end(), p_moduli_.begin(), p_moduli_.end());

    it = digit_bconv_cache_
             .emplace(key, std::make_unique<BaseConverter>(
                               std::move(in_base), std::move(out_base)))
             .first;
    return *it->second;
}

const BaseConverter &
CkksContext::modDownConverter(int level) const
{
    std::lock_guard<std::mutex> lk(cache_m_);
    auto it = moddown_bconv_cache_.find(level);
    if (it == moddown_bconv_cache_.end()) {
        it = moddown_bconv_cache_
                 .emplace(level, std::make_unique<BaseConverter>(
                                     p_moduli_, levelModuli(level)))
                 .first;
    }
    return *it->second;
}

void
CkksContext::keyNttForward(RnsPoly &p, int level) const
{
    backend().nttForward(p, keyTablePtrs(level));
}

void
CkksContext::keyNttInverse(RnsPoly &p, int level) const
{
    backend().nttInverse(p, keyTablePtrs(level));
}

} // namespace ark
