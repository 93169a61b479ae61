/**
 * @file
 * CKKS evaluator: every primitive HE op from Table II of the paper.
 *
 * HAdd/HMult/HRot/HRescale/CAdd/CMult/PAdd/PMult plus the generalized
 * key-switching of Alg. 2 (Han-Ki, dnum digits), Halevi-Shoup hoisted
 * rotations, level management (ModDown), and the ModRaise step of
 * bootstrapping (LevelRecover).
 *
 * Everything operates on ciphertexts in the evaluation representation;
 * the BConvRoutine (INTT -> BConv -> NTT, Alg. 1) appears inside
 * key-switching exactly as the paper describes, which is what makes
 * (I)NTT and BConv the dominant primary functions ARK accelerates.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "ckks/context.h"
#include "ckks/keys.h"

namespace ark {

/** Stateless HE-op engine bound to one context. */
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(const CkksContext &ctx);

    const CkksContext &context() const { return ctx_; }

    /// @name Linear ops (Table II)
    /// @{
    Ciphertext add(const Ciphertext &c1, const Ciphertext &c2) const;
    Ciphertext sub(const Ciphertext &c1, const Ciphertext &c2) const;
    Ciphertext negate(const Ciphertext &c) const;
    /** PAdd: add an encoded plaintext (same level and scale). */
    Ciphertext addPlain(const Ciphertext &c, const Plaintext &p) const;
    Ciphertext subPlain(const Ciphertext &c, const Plaintext &p) const;
    /** PMult: multiply by an encoded plaintext; scales multiply. */
    Ciphertext mulPlain(const Ciphertext &c, const Plaintext &p) const;
    /** CAdd: add a real scalar to every slot. */
    Ciphertext addScalar(const Ciphertext &c, double value) const;
    /** CMult: multiply every slot by a real scalar, encoded at
     *  @p scale (defaults to Delta); result scale multiplies. */
    Ciphertext mulScalar(const Ciphertext &c, double value,
                         double scale = 0) const;
    /** Multiply by i (the imaginary unit) — a monomial, no key needed. */
    Ciphertext mulByI(const Ciphertext &c) const;
    /// @}

    /// @name Multiplicative ops
    /// @{
    /** HMult without the trailing rescale; scale becomes s1*s2. */
    Ciphertext mul(const Ciphertext &c1, const Ciphertext &c2,
                   const EvalKey &evk_mult) const;
    Ciphertext square(const Ciphertext &c, const EvalKey &evk_mult) const;
    /** HRescale: drop the last limb and divide the scale by q_last. */
    Ciphertext rescale(const Ciphertext &c) const;
    /** Drop limbs down to @p level (modulus reduction, scale kept). */
    Ciphertext modDownTo(const Ciphertext &c, int level) const;
    /// @}

    /// @name Rotations
    /// @{
    /** HRot: circular left shift of the slots by r. */
    Ciphertext rotate(const Ciphertext &c, i64 r,
                      const EvalKey &evk_rot) const;
    /** Automorphism + key switch for an arbitrary Galois element. */
    Ciphertext applyGalois(const Ciphertext &c, u64 galois_elt,
                           const EvalKey &evk) const;
    Ciphertext conjugate(const Ciphertext &c,
                         const EvalKey &evk_conj) const;
    /**
     * Halevi-Shoup hoisting: rotate one ciphertext by many amounts,
     * paying the expensive digit decomposition only once.
     * @param rotations rotation amounts; @p evks one key per amount.
     */
    std::vector<Ciphertext>
    rotateHoisted(const Ciphertext &c, const std::vector<i64> &rotations,
                  const std::vector<const EvalKey *> &evks) const;
    /// @}

    /// @name Bootstrapping support
    /// @{
    /**
     * ModRaise (LevelRecover): re-interpret a level-0 ciphertext at the
     * max level. The underlying plaintext becomes Pm + q0 * I.
     */
    Ciphertext modRaise(const Ciphertext &c) const;
    /// @}

    /// @name Key-switching internals (exposed for tests and for the
    /// ARK program-trace builder, which mirrors these stages 1:1)
    /// @{
    /**
     * Alg. 2 line 3: extend each digit of @p d to the full P*Q basis
     * via BConvRoutine. @p d must be in Eval rep at @p level.
     */
    std::vector<RnsPoly> decompose(const RnsPoly &d, int level) const;

    /**
     * Alg. 2: full key switch of polynomial @p d (Eval rep, level
     * limbs). Returns the (B', A') pair after ModDown by P.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly &d,
                                          const EvalKey &evk,
                                          int level) const;

    /** Inner product of precomputed digits with an evk + ModDown. */
    std::pair<RnsPoly, RnsPoly>
    keySwitchDigits(const std::vector<RnsPoly> &digits,
                    const EvalKey &evk, int level) const;

    /** Divide an extended (q..p) Eval-rep poly by P, back to R_Q. */
    RnsPoly modDownByP(const RnsPoly &extended, int level) const;
    /// @}

  private:
    void checkCompatible(const Ciphertext &c1, const Ciphertext &c2) const;

    /**
     * keySwitch writing B' + @p add_b and A' + @p add_a into @p out_b /
     * @p out_a (level limbs; their words are overwritten). A null
     * addend adds nothing; the adds that finish HMult and HRot ride in
     * the ModDown pass.
     */
    void keySwitchInto(const RnsPoly &d, const EvalKey &evk, int level,
                       const RnsPoly *add_b, const RnsPoly *add_a,
                       RnsPoly &out_b, RnsPoly &out_a) const;

    /** keySwitchInto from precomputed digits. */
    void keySwitchDigitsInto(const std::vector<RnsPoly> &digits,
                             const EvalKey &evk, int level,
                             const RnsPoly *add_b, const RnsPoly *add_a,
                             RnsPoly &out_b, RnsPoly &out_a) const;

    /** modDownByP plus @p addend (level limbs, Eval rep; null adds
     *  nothing), written into @p out (level limbs; its words are
     *  overwritten). */
    void modDownInto(const RnsPoly &extended, int level,
                     const RnsPoly *addend, RnsPoly &out) const;

    const CkksContext &ctx_;
};

} // namespace ark
