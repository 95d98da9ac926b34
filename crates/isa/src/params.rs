//! FHE parameter registry — Table III of the paper.
//!
//! The evaluation uses three CKKS parameter sets (C1–C3, all with
//! `N = 2^16` at 128-bit security) and four TFHE sets (T1–T4, the same
//! sets Strix evaluates). All derived quantities the compiler and cost
//! models need (RNS limb counts, hybrid key-switching digits,
//! ciphertext byte sizes) live here so every crate agrees on them.

/// Word size of an RNS limb as scheduled on the hardware.
///
/// SHARP uses 36-bit limbs; UFC uses 32-bit functional units with
/// double-scaling to cover arbitrary moduli (§VI-A). The *limb count*
/// of a ciphertext is determined by the 36-bit budget (matching
/// SHARP's accounting so traces are comparable), while machine models
/// charge their own per-word costs.
pub const LIMB_BITS: u32 = 36;

/// An RNS-CKKS parameter set (paper Table III, C1–C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkksParams {
    /// Human-readable identifier ("C1".."C3").
    pub id: &'static str,
    /// log2 of the ring dimension N.
    pub log_n: u32,
    /// Number of key-switching digits (hybrid key-switching `dnum`).
    pub dnum: u32,
    /// log2 of the full modulus P·Q.
    pub log_pq: u32,
}

impl CkksParams {
    /// Ring dimension `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Number of slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.n() / 2
    }

    /// Total RNS limbs covering `log PQ` at [`LIMB_BITS`] bits each.
    pub fn total_limbs(&self) -> u32 {
        self.log_pq.div_ceil(LIMB_BITS)
    }

    /// Limbs of the special modulus `P` (`alpha = ceil(L / dnum)` in
    /// hybrid key-switching).
    pub fn special_limbs(&self) -> u32 {
        self.q_limbs().div_ceil(self.dnum)
    }

    /// Limbs of the ciphertext modulus `Q` (levels + 1).
    ///
    /// With `alpha` special limbs, `L_Q = total * dnum / (dnum + 1)`
    /// solved so that `L_Q + ceil(L_Q/dnum) == total`.
    pub fn q_limbs(&self) -> u32 {
        // Find the largest L such that L + ceil(L/dnum) <= total.
        let total = self.total_limbs();
        let mut l = total;
        while l + l.div_ceil(self.dnum) > total {
            l -= 1;
        }
        l
    }

    /// Maximum multiplicative level (one limb consumed per rescale).
    pub fn max_level(&self) -> u32 {
        self.q_limbs() - 1
    }

    /// Bytes of a fresh 2-polynomial ciphertext at level `level`
    /// (word-aligned to 8 bytes per coefficient limb).
    pub fn ciphertext_bytes(&self, level: u32) -> u64 {
        let limbs = (level + 1) as u64;
        2 * limbs * self.n() as u64 * 8
    }

    /// Bytes of one key-switching key: `dnum` digits, each a
    /// 2-polynomial ciphertext over `Q·P`.
    pub fn ksk_bytes(&self) -> u64 {
        let limbs = (self.q_limbs() + self.special_limbs()) as u64;
        self.dnum as u64 * 2 * limbs * self.n() as u64 * 8
    }
}

/// The CKKS sets of Table III.
///
/// C1's row is partially unreadable in the source text; the paper
/// pairs it with the SHARP-style configuration `dnum = 2`, and its
/// `log PQ` is set between C2's and the 36·50 budget.
pub const CKKS_SETS: [CkksParams; 3] = [
    CkksParams {
        id: "C1",
        log_n: 16,
        dnum: 2,
        log_pq: 1785,
    },
    CkksParams {
        id: "C2",
        log_n: 16,
        dnum: 3,
        log_pq: 1764,
    },
    CkksParams {
        id: "C3",
        log_n: 16,
        dnum: 4,
        log_pq: 1679,
    },
];

/// A TFHE parameter set (paper Table III, T1–T4 — Strix's sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TfheParams {
    /// Human-readable identifier ("T1".."T4").
    pub id: &'static str,
    /// LWE dimension `n`.
    pub lwe_dim: u32,
    /// log2 of the RLWE ring dimension `N`.
    pub log_n: u32,
    /// RGSW gadget levels `g_k` (decomposition depth).
    pub glwe_levels: u32,
    /// log2 of the RGSW gadget base.
    pub glwe_log_base: u32,
    /// Key-switching decomposition levels `d_ks`.
    pub ks_levels: u32,
    /// log2 of the key-switching base `B_ks`.
    pub ks_log_base: u32,
}

impl TfheParams {
    /// RLWE ring dimension `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Blind-rotation external products per bootstrap (= LWE dim `n`).
    pub fn blind_rotations(&self) -> u32 {
        self.lwe_dim
    }

    /// Bytes of the bootstrapping key: `n` RGSW ciphertexts, each
    /// `2·g_k` RLWE rows of 2 polynomials (word = 4 bytes, 32-bit
    /// torus).
    pub fn bsk_bytes(&self) -> u64 {
        self.lwe_dim as u64 * 2 * self.glwe_levels as u64 * 2 * self.n() as u64 * 4
    }

    /// Bytes of the key-switching key: `N · d_ks` LWE ciphertexts of
    /// dimension `n`.
    pub fn ksk_bytes(&self) -> u64 {
        self.n() as u64 * self.ks_levels as u64 * (self.lwe_dim as u64 + 1) * 4
    }

    /// Bytes of one LWE ciphertext.
    pub fn lwe_bytes(&self) -> u64 {
        (self.lwe_dim as u64 + 1) * 4
    }
}

/// The TFHE sets of Table III. Key-switching parameters follow Strix's
/// published configuration for the matching sets.
pub const TFHE_SETS: [TfheParams; 4] = [
    TfheParams {
        id: "T1",
        lwe_dim: 500,
        log_n: 10,
        glwe_levels: 2,
        glwe_log_base: 10,
        ks_levels: 2,
        ks_log_base: 8,
    },
    TfheParams {
        id: "T2",
        lwe_dim: 630,
        log_n: 10,
        glwe_levels: 3,
        glwe_log_base: 7,
        ks_levels: 2,
        ks_log_base: 8,
    },
    TfheParams {
        id: "T3",
        lwe_dim: 592,
        log_n: 11,
        glwe_levels: 3,
        glwe_log_base: 8,
        ks_levels: 2,
        ks_log_base: 8,
    },
    TfheParams {
        id: "T4",
        lwe_dim: 991,
        log_n: 14,
        glwe_levels: 2,
        glwe_log_base: 14,
        ks_levels: 3,
        ks_log_base: 6,
    },
];

/// A parameter-registry lookup failure, carrying the unknown id and
/// the set of valid ids. Surfaced to users through compiler errors
/// (`ufc-compiler`'s `CompileError`) and verifier diagnostics
/// (`ufc-verify`'s `params-unknown` check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// No CKKS set with this id exists in Table III.
    UnknownCkks {
        /// The id that failed to resolve.
        id: String,
    },
    /// No TFHE set with this id exists in Table III.
    UnknownTfhe {
        /// The id that failed to resolve.
        id: String,
    },
    /// A parameter set resolved, but its ring/modulus combination
    /// cannot back an NTT context (composite modulus, `q ≢ 1 mod 2n`,
    /// or no NTT-friendly prime of the requested width exists).
    InvalidNtt {
        /// The parameter-set id whose instantiation failed.
        id: String,
        /// What the NTT layer rejected, human-readable.
        detail: String,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::UnknownCkks { id } => {
                let known: Vec<&str> = CKKS_SETS.iter().map(|p| p.id).collect();
                write!(
                    f,
                    "unknown CKKS parameter set `{id}` (known: {})",
                    known.join(", ")
                )
            }
            ParamsError::UnknownTfhe { id } => {
                let known: Vec<&str> = TFHE_SETS.iter().map(|p| p.id).collect();
                write!(
                    f,
                    "unknown TFHE parameter set `{id}` (known: {})",
                    known.join(", ")
                )
            }
            ParamsError::InvalidNtt { id, detail } => {
                write!(f, "parameter set `{id}` cannot back an NTT: {detail}")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// Looks up a CKKS set by id ("C1".."C3").
pub fn ckks_params(id: &str) -> Option<CkksParams> {
    CKKS_SETS.iter().copied().find(|p| p.id == id)
}

/// Looks up a TFHE set by id ("T1".."T4").
pub fn tfhe_params(id: &str) -> Option<TfheParams> {
    TFHE_SETS.iter().copied().find(|p| p.id == id)
}

/// Like [`ckks_params`] but with a typed error for library paths.
pub fn try_ckks_params(id: &str) -> Result<CkksParams, ParamsError> {
    ckks_params(id).ok_or_else(|| ParamsError::UnknownCkks { id: id.to_owned() })
}

/// Like [`tfhe_params`] but with a typed error for library paths.
pub fn try_tfhe_params(id: &str) -> Result<TfheParams, ParamsError> {
    tfhe_params(id).ok_or_else(|| ParamsError::UnknownTfhe { id: id.to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        assert_eq!(ckks_params("C2").unwrap().dnum, 3);
        assert_eq!(tfhe_params("T4").unwrap().log_n, 14);
        assert!(ckks_params("C9").is_none());
        assert!(tfhe_params("X").is_none());
    }

    #[test]
    fn ckks_limb_budget_is_consistent() {
        for p in CKKS_SETS {
            let l = p.q_limbs();
            let a = p.special_limbs();
            assert!(l + a <= p.total_limbs(), "{}", p.id);
            assert!(l > 20, "{} should support deep circuits", p.id);
            // alpha = ceil(L / dnum).
            assert_eq!(a, l.div_ceil(p.dnum));
        }
    }

    #[test]
    fn ckks_sizes_scale_with_level() {
        let p = ckks_params("C1").unwrap();
        assert!(p.ciphertext_bytes(10) < p.ciphertext_bytes(20));
        // A fresh full-level ciphertext of N=2^16 with ~33 limbs is
        // tens of MB.
        let full = p.ciphertext_bytes(p.max_level());
        assert!(full > 10 << 20, "full ct = {full} bytes");
    }

    #[test]
    fn tfhe_bsk_dominates_ksk_for_large_n() {
        let t4 = tfhe_params("T4").unwrap();
        assert!(t4.bsk_bytes() > t4.ksk_bytes());
        // T4's bootstrapping key is hundreds of MB.
        assert!(t4.bsk_bytes() > 100 << 20);
    }

    #[test]
    fn tfhe_sets_match_table_iii() {
        let dims: Vec<u32> = TFHE_SETS.iter().map(|p| p.lwe_dim).collect();
        assert_eq!(dims, vec![500, 630, 592, 991]);
        let log_ns: Vec<u32> = TFHE_SETS.iter().map(|p| p.log_n).collect();
        assert_eq!(log_ns, vec![10, 10, 11, 14]);
        let gks: Vec<u32> = TFHE_SETS.iter().map(|p| p.glwe_levels).collect();
        assert_eq!(gks, vec![2, 3, 3, 2]);
    }

    #[test]
    fn ckks_sets_match_table_iii() {
        assert_eq!(ckks_params("C2").unwrap().log_pq, 1764);
        assert_eq!(ckks_params("C3").unwrap().log_pq, 1679);
        assert!(CKKS_SETS.iter().all(|p| p.log_n == 16));
    }
}
