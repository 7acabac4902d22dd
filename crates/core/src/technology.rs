//! The eight technology classes of the paper's Table 2.

use crate::dimension::Grade;
use std::fmt;

/// A row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechnologyClass {
    /// Statistical disclosure control by data masking [17, 26].
    Sdc,
    /// Use-specific non-cryptographic PPDM (e.g. Agrawal–Srikant noise for
    /// decision trees \[5\], rule hiding \[25\]).
    UseSpecificNonCryptoPpdm,
    /// Generic non-cryptographic PPDM (e.g. k-anonymization by
    /// microaggregation/condensation [1, 2, 12]).
    GenericNonCryptoPpdm,
    /// Cryptographic PPDM: secure multiparty computation [18, 19].
    CryptoPpdm,
    /// Private information retrieval alone \[8\].
    Pir,
    /// SDC masking with PIR access.
    SdcPlusPir,
    /// Use-specific non-crypto PPDM with PIR access.
    UseSpecificPpdmPlusPir,
    /// Generic non-crypto PPDM with PIR access.
    GenericPpdmPlusPir,
}

impl TechnologyClass {
    /// All eight classes, in the paper's Table 2 row order.
    pub const ALL: [TechnologyClass; 8] = [
        TechnologyClass::Sdc,
        TechnologyClass::UseSpecificNonCryptoPpdm,
        TechnologyClass::GenericNonCryptoPpdm,
        TechnologyClass::CryptoPpdm,
        TechnologyClass::Pir,
        TechnologyClass::SdcPlusPir,
        TechnologyClass::UseSpecificPpdmPlusPir,
        TechnologyClass::GenericPpdmPlusPir,
    ];

    /// The paper's name of the row.
    pub fn name(&self) -> &'static str {
        match self {
            TechnologyClass::Sdc => "SDC",
            TechnologyClass::UseSpecificNonCryptoPpdm => "Use-specific non-crypto PPDM",
            TechnologyClass::GenericNonCryptoPpdm => "Generic non-crypto PPDM",
            TechnologyClass::CryptoPpdm => "Crypto PPDM",
            TechnologyClass::Pir => "PIR",
            TechnologyClass::SdcPlusPir => "SDC + PIR",
            TechnologyClass::UseSpecificPpdmPlusPir => "Use-specific non-crypto PPDM + PIR",
            TechnologyClass::GenericPpdmPlusPir => "Generic non-crypto PPDM + PIR",
        }
    }

    /// The paper's Table 2 grades: (respondent, owner, user).
    pub fn paper_grades(&self) -> [Grade; 3] {
        use Grade::*;
        match self {
            TechnologyClass::Sdc => [MediumHigh, Medium, None],
            TechnologyClass::UseSpecificNonCryptoPpdm => [Medium, MediumHigh, None],
            TechnologyClass::GenericNonCryptoPpdm => [Medium, MediumHigh, None],
            TechnologyClass::CryptoPpdm => [High, High, None],
            TechnologyClass::Pir => [None, None, High],
            TechnologyClass::SdcPlusPir => [MediumHigh, Medium, High],
            TechnologyClass::UseSpecificPpdmPlusPir => [Medium, MediumHigh, Medium],
            TechnologyClass::GenericPpdmPlusPir => [Medium, MediumHigh, High],
        }
    }

    /// Whether the class includes a PIR access channel.
    pub fn has_pir(&self) -> bool {
        matches!(
            self,
            TechnologyClass::Pir
                | TechnologyClass::SdcPlusPir
                | TechnologyClass::UseSpecificPpdmPlusPir
                | TechnologyClass::GenericPpdmPlusPir
        )
    }
}

impl fmt::Display for TechnologyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_rows_like_table_2() {
        assert_eq!(TechnologyClass::ALL.len(), 8);
        let names: Vec<&str> = TechnologyClass::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names[0], "SDC");
        assert_eq!(names[4], "PIR");
    }

    #[test]
    fn paper_grade_invariants() {
        use Grade::*;
        // Only PIR-bearing classes have non-none user privacy.
        for t in TechnologyClass::ALL {
            let [_, _, user] = t.paper_grades();
            assert_eq!(user != None, t.has_pir(), "{t}");
        }
        // Crypto PPDM has the best owner grade.
        let crypto_owner = TechnologyClass::CryptoPpdm.paper_grades()[1];
        for t in TechnologyClass::ALL {
            assert!(t.paper_grades()[1] <= crypto_owner, "{t}");
        }
        // PIR alone protects nobody's data.
        assert_eq!(TechnologyClass::Pir.paper_grades()[0], None);
        assert_eq!(TechnologyClass::Pir.paper_grades()[1], None);
    }

    #[test]
    fn pir_composition_preserves_data_grades() {
        // Adding PIR must not change the respondent/owner grades in the
        // paper's table.
        let pairs = [
            (TechnologyClass::Sdc, TechnologyClass::SdcPlusPir),
            (
                TechnologyClass::UseSpecificNonCryptoPpdm,
                TechnologyClass::UseSpecificPpdmPlusPir,
            ),
            (
                TechnologyClass::GenericNonCryptoPpdm,
                TechnologyClass::GenericPpdmPlusPir,
            ),
        ];
        for (base, combo) in pairs {
            assert_eq!(base.paper_grades()[0], combo.paper_grades()[0]);
            assert_eq!(base.paper_grades()[1], combo.paper_grades()[1]);
        }
    }
}
