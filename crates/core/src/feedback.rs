//! Pay-as-you-go feedback: fold human confirmations into re-configuration.
//!
//! §9: "the foundation of modeling uncertainty will help pinpoint where
//! human feedback can be most effective in improving the semantic
//! integration in the system, in the spirit of [Jeffery, Franklin &
//! Halevy's pay-as-you-go user feedback]". This module implements that
//! loop:
//!
//! 1. [`suggest_questions`] ranks the schema's *uncertain* decisions — the
//!    attribute pairs whose clustering differs across the possible mediated
//!    schemas — by how much probability mass hinges on them. Those are the
//!    questions worth a human's time.
//! 2. [`Feedback`] records the answers: two names denote the same concept,
//!    or different ones.
//! 3. [`Feedback::wrap`] turns any similarity measure into one that honors
//!    the feedback (confirmed-same → similarity 1, confirmed-different →
//!    0), so re-running setup yields a system whose schemas no longer
//!    branch on answered questions.

use std::collections::BTreeSet;

use udi_similarity::Similarity;

use crate::system::UdiSystem;

/// Accumulated human judgments about attribute-name pairs.
#[derive(Debug, Clone, Default)]
pub struct Feedback {
    same: BTreeSet<(String, String)>,
    different: BTreeSet<(String, String)>,
}

fn key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

impl Feedback {
    /// No feedback yet.
    pub fn new() -> Feedback {
        Feedback::default()
    }

    /// Record that `a` and `b` denote the same concept. Removes any
    /// contrary judgment.
    pub fn confirm_same(&mut self, a: &str, b: &str) -> &mut Feedback {
        let k = key(a, b);
        self.different.remove(&k);
        self.same.insert(k);
        self
    }

    /// Record that `a` and `b` denote different concepts. Removes any
    /// contrary judgment.
    pub fn confirm_different(&mut self, a: &str, b: &str) -> &mut Feedback {
        let k = key(a, b);
        self.same.remove(&k);
        self.different.insert(k);
        self
    }

    /// The recorded judgment for a pair, if any: `Some(true)` = same
    /// concept, `Some(false)` = different.
    pub fn judgment(&self, a: &str, b: &str) -> Option<bool> {
        let k = key(a, b);
        if self.same.contains(&k) {
            Some(true)
        } else if self.different.contains(&k) {
            Some(false)
        } else {
            None
        }
    }

    /// Number of recorded judgments.
    pub fn len(&self) -> usize {
        self.same.len() + self.different.len()
    }

    /// Whether no judgment has been recorded.
    pub fn is_empty(&self) -> bool {
        self.same.is_empty() && self.different.is_empty()
    }

    /// Every recorded judgment as `(a, b, same-concept?)`, names in
    /// canonical (sorted) order.
    pub fn judgments(&self) -> impl Iterator<Item = (&str, &str, bool)> {
        self.same
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str(), true))
            .chain(
                self.different
                    .iter()
                    .map(|(a, b)| (a.as_str(), b.as_str(), false)),
            )
    }

    /// Fold another batch of judgments into this one. On conflict the
    /// incoming judgment wins, matching the latest-wins rule of
    /// [`confirm_same`](Feedback::confirm_same) /
    /// [`confirm_different`](Feedback::confirm_different).
    pub fn merge(&mut self, other: &Feedback) {
        for (a, b, same) in other.judgments() {
            if same {
                self.confirm_same(a, b);
            } else {
                self.confirm_different(a, b);
            }
        }
    }

    /// Wrap a base measure so it honors this feedback: confirmed-same pairs
    /// score 1.0, confirmed-different pairs 0.0, everything else defers to
    /// `base`. Re-running [`UdiSystem::setup_with_measure`] with the
    /// wrapped measure folds the feedback into the whole pipeline — graph,
    /// schemas, correspondences and p-mappings alike.
    pub fn wrap<'a>(&'a self, base: &'a (dyn Similarity + Sync)) -> FeedbackMeasure<'a> {
        FeedbackMeasure {
            feedback: self,
            base,
        }
    }
}

/// A similarity measure overridden by human judgments (see
/// [`Feedback::wrap`]).
pub struct FeedbackMeasure<'a> {
    feedback: &'a Feedback,
    base: &'a (dyn Similarity + Sync),
}

impl Similarity for FeedbackMeasure<'_> {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        match self.feedback.judgment(a, b) {
            Some(true) => 1.0,
            Some(false) => 0.0,
            None => self.base.similarity(a, b),
        }
    }
}

/// An uncertain clustering decision worth asking a human about.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// First attribute name.
    pub a: String,
    /// Second attribute name.
    pub b: String,
    /// Probability mass of the schemas that cluster the pair together.
    pub p_together: f64,
}

impl Question {
    /// How informative the answer is: mass on the minority hypothesis.
    /// `0.5` is a coin flip (most valuable), `~0` means the system is
    /// already nearly sure.
    pub fn uncertainty(&self) -> f64 {
        self.p_together.min(1.0 - self.p_together)
    }
}

/// Rank the attribute pairs whose clustering differs across the possible
/// mediated schemas, most uncertain first. This is where human feedback
/// buys the most: answering a `p ≈ 0.5` question collapses half the
/// schema distribution.
pub fn suggest_questions(system: &UdiSystem) -> Vec<Question> {
    let vocab = system.schema_set().vocab();
    let pmed = system.pmed();
    let attrs: Vec<_> = pmed.top().attribute_set().into_iter().collect();
    let mut out = Vec::new();
    for (i, &x) in attrs.iter().enumerate() {
        for &y in attrs.get(i + 1..).unwrap_or(&[]) {
            let mut together = 0.0;
            let mut differs = false;
            let first = pmed
                .schemas()
                .first()
                .map(|(m, _)| m.cluster_of(x) == m.cluster_of(y))
                .unwrap_or(true);
            for (m, p) in pmed.schemas() {
                let t = m.cluster_of(x) == m.cluster_of(y);
                if t {
                    together += p;
                }
                if t != first {
                    differs = true;
                }
            }
            if differs {
                out.push(Question {
                    a: vocab.name(x).to_owned(),
                    b: vocab.name(y).to_owned(),
                    p_together: together,
                });
            }
        }
    }
    out.sort_by(|p, q| {
        q.uncertainty()
            .partial_cmp(&p.uncertainty())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (p.a.clone(), p.b.clone()).cmp(&(q.a.clone(), q.b.clone())))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::UdiConfig;
    use udi_similarity::AttributeSimilarity;
    use udi_store::{Catalog, Table};

    fn uncertain_catalog() -> Catalog {
        // `issue` vs `issn` sits in the uncertain band: the p-med-schema
        // branches on it.
        let mut c = Catalog::new();
        for (name, attrs) in [
            ("s1", vec!["title", "issue", "issn"]),
            ("s2", vec!["title", "issue"]),
            ("s3", vec!["title", "issn"]),
            ("s4", vec!["title", "issue", "issn"]),
        ] {
            let mut t = Table::new(name, attrs.clone());
            t.push_raw_row(attrs.iter().map(|_| "v")).unwrap();
            c.add_source(t).unwrap();
        }
        c
    }

    #[test]
    fn judgments_record_and_override() {
        let mut f = Feedback::new();
        assert!(f.is_empty());
        f.confirm_same("phone", "tel");
        assert_eq!(f.judgment("tel", "phone"), Some(true), "order-insensitive");
        f.confirm_different("phone", "tel");
        assert_eq!(f.judgment("phone", "tel"), Some(false), "latest wins");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wrapped_measure_overrides_base() {
        let mut f = Feedback::new();
        f.confirm_same("issue", "issn");
        f.confirm_different("title", "issue");
        let base = AttributeSimilarity::default();
        let m = f.wrap(&base);
        assert_eq!(m.similarity("issue", "issn"), 1.0);
        assert_eq!(m.similarity("issn", "issue"), 1.0);
        assert_eq!(m.similarity("title", "issue"), 0.0);
        // Unjudged pairs defer to the base measure.
        assert_eq!(
            m.similarity("title", "titles"),
            base.similarity("title", "titles")
        );
    }

    #[test]
    fn questions_surface_the_uncertain_pair() {
        let udi = UdiSystem::setup(uncertain_catalog(), UdiConfig::default()).unwrap();
        assert!(udi.pmed().len() >= 2, "fixture must branch");
        let qs = suggest_questions(&udi);
        assert!(!qs.is_empty());
        let top = &qs[0];
        let pair = [top.a.as_str(), top.b.as_str()];
        assert!(pair.contains(&"issue") && pair.contains(&"issn"), "{qs:?}");
        assert!(top.uncertainty() > 0.0);
        assert!(top.p_together > 0.0 && top.p_together < 1.0);
    }

    #[test]
    fn answering_the_question_collapses_the_schema() {
        let catalog = uncertain_catalog();
        let udi = UdiSystem::setup(catalog.clone(), UdiConfig::default()).unwrap();
        let before = udi.pmed().len();
        assert!(before >= 2);

        // The human says: issue and issn are different concepts.
        let mut f = Feedback::new();
        f.confirm_different("issue", "issn");
        let base = AttributeSimilarity::default();
        let measure = f.wrap(&base);
        let improved =
            UdiSystem::setup_with_measure(catalog, &measure, UdiConfig::default()).unwrap();
        assert!(
            improved.pmed().len() < before,
            "answered question must stop branching: {} -> {}",
            before,
            improved.pmed().len()
        );
        // And the pair is no longer clustered anywhere.
        let vocab = improved.schema_set().vocab();
        let issue = vocab.id_of("issue").unwrap();
        let issn = vocab.id_of("issn").unwrap();
        for (m, _) in improved.pmed().schemas() {
            assert_ne!(m.cluster_of(issue), m.cluster_of(issn));
        }
        // No more questions about that pair.
        let qs = suggest_questions(&improved);
        assert!(!qs
            .iter()
            .any(|q| [q.a.as_str(), q.b.as_str()] == ["issn", "issue"]
                || [q.a.as_str(), q.b.as_str()] == ["issue", "issn"]));
    }

    #[test]
    fn deterministic_schema_has_no_questions() {
        let mut c = Catalog::new();
        let mut t = Table::new("s", ["name", "phone"]);
        t.push_raw_row(["x", "1"]).unwrap();
        c.add_source(t).unwrap();
        let mut t2 = Table::new("s2", ["name", "phone"]);
        t2.push_raw_row(["y", "2"]).unwrap();
        c.add_source(t2).unwrap();
        let udi = UdiSystem::setup(c, UdiConfig::default()).unwrap();
        assert!(udi.pmed().is_deterministic());
        assert!(suggest_questions(&udi).is_empty());
    }
}
