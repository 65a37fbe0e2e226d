//! Dimensional metric labels.
//!
//! A [`LabelSet`] is a small sorted `key=value` vector rendered once into a
//! canonical suffix (`{k="v",k2="v2"}`, keys sorted, no spaces) that is
//! appended to metric names. Carrying the labels inside the name keeps every
//! downstream consumer — [`crate::registry::Snapshot`] maps, JSONL/binfmt
//! snapshot records, the [`crate::timeseries::Sampler`] rings — working
//! unchanged: a labeled series is just another (deterministically ordered)
//! name. [`crate::prometheus`] splits the suffix back out at exposition time.

/// A sorted set of `key=value` labels with a canonical rendering.
///
/// Keys and values are sanitized at construction (characters that would
/// break the canonical `{k="v"}` grammar or Prometheus text exposition —
/// braces, quotes, backslashes, commas, `=`, whitespace — become `_`), so a
/// qualified name always parses back via [`split_name`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
    /// Cached canonical inner rendering: `k="v",k2="v2"` (empty when no labels).
    inner: String,
}

fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| {
            if c.is_ascii_graphic() && !matches!(c, '{' | '}' | '"' | '\\' | ',' | '=') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl LabelSet {
    /// The empty label set (qualifies names to themselves).
    pub fn empty() -> Self {
        LabelSet::default()
    }

    /// Builds a label set from `key=value` pairs; keys are sorted and a
    /// duplicate key keeps the last value given.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut sorted: Vec<(String, String)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            let k = sanitize(k);
            let v = sanitize(v);
            match sorted.binary_search_by(|(ek, _)| ek.as_str().cmp(k.as_str())) {
                Ok(i) => sorted[i].1 = v,
                Err(i) => sorted.insert(i, (k, v)),
            }
        }
        let mut set = LabelSet {
            pairs: sorted,
            inner: String::new(),
        };
        set.render();
        set
    }

    /// A single-label set; the common `link="<id>"` case.
    pub fn link(id: impl std::fmt::Display) -> Self {
        LabelSet::from_pairs(&[("link", &id.to_string())])
    }

    fn render(&mut self) {
        let mut out = String::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        self.inner = out;
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.pairs[i].1.as_str())
    }

    /// The sorted `(key, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Canonical inner rendering without braces: `k="v",k2="v2"`.
    pub fn inner(&self) -> &str {
        &self.inner
    }

    /// Qualifies `base` with this label set: `base{k="v"}` (or `base`
    /// unchanged when empty).
    pub fn qualify(&self, base: &str) -> String {
        if self.pairs.is_empty() {
            base.to_string()
        } else {
            format!("{base}{{{}}}", self.inner)
        }
    }
}

/// Splits a (possibly qualified) metric name into its base and the inner
/// label rendering: `a.b{k="v"}` → `("a.b", Some("k=\"v\""))`.
pub fn split_name(name: &str) -> (&str, Option<&str>) {
    if let Some(stripped) = name.strip_suffix('}') {
        if let Some((base, inner)) = stripped.split_once('{') {
            return (base, Some(inner));
        }
    }
    (name, None)
}

/// The value of label `key` inside a qualified metric name, if present.
pub fn label_value<'a>(name: &'a str, key: &str) -> Option<&'a str> {
    let (_, inner) = split_name(name);
    let inner = inner?;
    for pair in inner.split(',') {
        let (k, v) = pair.split_once('=')?;
        if k == key {
            return v.strip_prefix('"')?.strip_suffix('"');
        }
    }
    None
}

/// Whether an inner label rendering parses as `k="v"(,k="v")*` with
/// exposition-safe contents (identifier keys; values free of spaces,
/// quotes, backslashes, braces and commas — what [`LabelSet`] produces).
pub fn is_valid_inner(inner: &str) -> bool {
    !inner.is_empty()
        && inner.split(',').all(|pair| {
            let Some((k, v)) = pair.split_once('=') else {
                return false;
            };
            let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return false;
            };
            !k.is_empty()
                && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && v.chars()
                    .all(|c| c.is_ascii_graphic() && !matches!(c, '"' | '\\' | '{' | '}' | ','))
        })
}

/// Qualifies `base` with an already-rendered inner label block.
pub fn qualify(base: &str, inner: &str) -> String {
    if inner.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{inner}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_sorted_and_deduped() {
        let set = LabelSet::from_pairs(&[("z", "1"), ("a", "2"), ("z", "3")]);
        assert_eq!(set.inner(), "a=\"2\",z=\"3\"");
        assert_eq!(set.get("z"), Some("3"));
        assert_eq!(set.get("missing"), None);
    }

    #[test]
    fn qualify_and_split_round_trip() {
        let set = LabelSet::from_pairs(&[("link", "7"), ("band", "60")]);
        let name = set.qualify("quality.snr_loss_mdb");
        assert_eq!(name, "quality.snr_loss_mdb{band=\"60\",link=\"7\"}");
        let (base, inner) = split_name(&name);
        assert_eq!(base, "quality.snr_loss_mdb");
        assert_eq!(inner, Some("band=\"60\",link=\"7\""));
        assert_eq!(label_value(&name, "link"), Some("7"));
        assert_eq!(label_value(&name, "band"), Some("60"));
        assert_eq!(label_value(&name, "absent"), None);
    }

    #[test]
    fn empty_set_is_identity() {
        let set = LabelSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.qualify("a.b"), "a.b");
        assert_eq!(split_name("a.b"), ("a.b", None));
    }

    #[test]
    fn hostile_values_are_sanitized() {
        let set = LabelSet::from_pairs(&[("k", "a b\"c{d}e,f=g\\h")]);
        assert_eq!(set.get("k"), Some("a_b_c_d_e_f_g_h"));
        // The qualified name still parses and contains no spaces.
        let name = set.qualify("m");
        assert!(!name.contains(' '));
        assert_eq!(label_value(&name, "k"), Some("a_b_c_d_e_f_g_h"));
    }
}
