//! The plan model: a candidate assignment of directives, its rendering
//! back into Fortran (via `dsm_frontend::splice`) and its JSON form.

use dsm_frontend::ast::{AExpr, AffinityDir, DistItem, DistributeDir, DoacrossDir, SchedSpec};
use dsm_frontend::splice::{
    render_distribute, render_doacross, render_redistribute, render_resize_team,
    splice_directives, Splice,
};
use dsm_frontend::Span;

use crate::analyze::Analysis;

/// One per-dimension distribution choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Di {
    /// `block`
    Block,
    /// `cyclic(k)`
    Cyclic(i64),
    /// `*`
    Star,
}

impl Di {
    fn to_item(self) -> DistItem {
        match self {
            Di::Block => DistItem::Block,
            Di::Cyclic(k) => DistItem::Cyclic(Some(AExpr::Int(k))),
            Di::Star => DistItem::Star,
        }
    }

    fn json(self) -> String {
        match self {
            Di::Block => "\"block\"".into(),
            Di::Cyclic(k) => format!("\"cyclic({k})\""),
            Di::Star => "\"*\"".into(),
        }
    }
}

/// Block on one slot, `*` elsewhere.
pub fn block_at(slot: usize, rank: usize) -> Vec<Di> {
    (0..rank)
        .map(|d| if d == slot { Di::Block } else { Di::Star })
        .collect()
}

/// A `c$distribute`/`c$distribute_reshape` choice for one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDist {
    /// Array name.
    pub array: String,
    /// Per-dimension items.
    pub items: Vec<Di>,
    /// `c$distribute_reshape` instead of `c$distribute`.
    pub reshape: bool,
    /// `onto` grid ratios (empty = none).
    pub onto: Vec<i64>,
}

/// A `c$doacross` choice for one analyzed loop site.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanLoop {
    /// Index into [`Analysis::sites`].
    pub site: usize,
    /// `affinity(v) = data(array(1, …, v@slot, …, 1))`.
    pub affinity: Option<(String, usize)>,
    /// Use `nest(v, w)` (requires the site's perfect nest).
    pub nest: bool,
    /// Explicit `schedtype` (None = the default schedule).
    pub sched: Option<SchedSpec>,
}

/// A `c$redistribute` inserted before a top-level statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRedist {
    /// Array name (must be regular-distributed by the plan).
    pub array: String,
    /// 1-based line of the stripped main file to insert before.
    pub before_line: usize,
    /// New per-dimension items.
    pub items: Vec<Di>,
}

/// A `c$resize_team` point inserted before a top-level statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanResize {
    /// 1-based line of the stripped main file to insert before.
    pub before_line: usize,
    /// New team width.
    pub team: usize,
}

/// A complete candidate: distributions + parallel loops + redistributes
/// + resize points. The empty plan is the unannotated baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Distribution directives (at most one per array).
    pub dists: Vec<PlanDist>,
    /// Loops annotated `c$doacross`.
    pub loops: Vec<PlanLoop>,
    /// Mid-program redistributions.
    pub redists: Vec<PlanRedist>,
    /// Mid-program team resizes.
    pub resizes: Vec<PlanResize>,
}

impl Plan {
    /// The plan's distribution for `array`, if any.
    pub fn dist_of(&self, array: &str) -> Option<&PlanDist> {
        self.dists.iter().find(|d| d.array == array)
    }

    /// Copy with `array`'s distribution replaced (or removed when
    /// `dist` is `None`). Redistributes of the array are dropped — they
    /// are only meaningful relative to the initial distribution.
    #[must_use]
    pub fn with_dist(&self, array: &str, dist: Option<PlanDist>) -> Plan {
        let mut p = self.clone();
        p.dists.retain(|d| d.array != array);
        p.redists.retain(|r| r.array != array);
        if let Some(d) = dist {
            p.dists.push(d);
        }
        p
    }

    /// Copy with the given loop choice replacing any choice for the same
    /// site (or removing it when `choice` is `None`).
    #[must_use]
    pub fn with_loop(&self, site: usize, choice: Option<PlanLoop>) -> Plan {
        let mut p = self.clone();
        p.loops.retain(|l| l.site != site);
        if let Some(l) = choice {
            p.loops.push(l);
        }
        p
    }

    /// Copy with a redistribute appended.
    #[must_use]
    pub fn with_redist(&self, r: PlanRedist) -> Plan {
        let mut p = self.clone();
        p.redists
            .retain(|x| x.array != r.array || x.before_line != r.before_line);
        p.redists.push(r);
        p
    }

    /// Copy with a resize point appended (replacing any resize at the
    /// same line — two teams cannot coexist at one point).
    #[must_use]
    pub fn with_resize(&self, r: PlanResize) -> Plan {
        let mut p = self.clone();
        p.resizes.retain(|x| x.before_line != r.before_line);
        p.resizes.push(r);
        p
    }

    /// The directive lines of this plan, in splice order (for display).
    pub fn directives(&self, an: &Analysis) -> Vec<String> {
        self.splices(an)
            .into_iter()
            .flat_map(|(_, v)| v)
            .map(|s| s.text)
            .collect()
    }

    fn splices(&self, an: &Analysis) -> Vec<(usize, Vec<Splice>)> {
        let mut per_file: Vec<(usize, Vec<Splice>)> =
            (0..an.stripped.len()).map(|i| (i, Vec::new())).collect();
        for d in &self.dists {
            per_file[an.main_file].1.push(Splice {
                before_line: an.decl_insert_line,
                text: render_distribute(&DistributeDir {
                    span: Span::default(),
                    array: d.array.clone(),
                    dists: d.items.iter().map(|i| i.to_item()).collect(),
                    onto: d.onto.clone(),
                    reshape: d.reshape,
                }),
            });
        }
        for l in &self.loops {
            let site = &an.sites[l.site];
            let affinity = l.affinity.as_ref().map(|(arr, slot)| {
                let rank = an.array(arr).map_or(slot + 1, |a| a.dims.len());
                AffinityDir {
                    loop_vars: vec![site.var.clone()],
                    array: arr.clone(),
                    indices: (0..rank)
                        .map(|d| {
                            if d == *slot {
                                AExpr::Name(site.var.clone())
                            } else {
                                AExpr::Int(1)
                            }
                        })
                        .collect(),
                }
            });
            let nest = if l.nest {
                match &site.nest {
                    Some(inner) => vec![site.var.clone(), inner.clone()],
                    None => Vec::new(),
                }
            } else {
                Vec::new()
            };
            per_file[site.file].1.push(Splice {
                before_line: site.line,
                text: render_doacross(&DoacrossDir {
                    span: Span::default(),
                    nest,
                    locals: site.locals.clone(),
                    shareds: Vec::new(),
                    affinity,
                    sched: l.sched.clone(),
                }),
            });
        }
        for r in &self.redists {
            per_file[an.main_file].1.push(Splice {
                before_line: r.before_line,
                text: render_redistribute(
                    &r.array,
                    &r.items.iter().map(|i| i.to_item()).collect::<Vec<_>>(),
                ),
            });
        }
        for r in &self.resizes {
            per_file[an.main_file].1.push(Splice {
                before_line: r.before_line,
                text: render_resize_team(r.team),
            });
        }
        per_file
    }

    /// Splice the plan into the stripped sources: the annotated program.
    pub fn annotate(&self, an: &Analysis) -> Vec<(String, String)> {
        let per_file = self.splices(an);
        an.stripped
            .iter()
            .zip(per_file)
            .map(|((name, text), (_, inserts))| (name.clone(), splice_directives(text, &inserts)))
            .collect()
    }

    /// Hand-rolled JSON object (the workspace carries no serde).
    pub fn to_json(&self, an: &Analysis) -> String {
        let q = |name: &str| {
            let mut lit = String::new();
            dsm_exec::wire::push_json_str(&mut lit, name);
            lit
        };
        let mut s = String::from("{\n    \"distributes\": [");
        for (i, d) in self.dists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"array\": {}, \"items\": [{}], \"reshape\": {}, \"onto\": [{}]}}",
                q(&d.array),
                d.items
                    .iter()
                    .map(|i| i.json())
                    .collect::<Vec<_>>()
                    .join(", "),
                d.reshape,
                d.onto
                    .iter()
                    .map(i64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        s.push_str("\n    ],\n    \"loops\": [");
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let site = &an.sites[l.site];
            let aff = match &l.affinity {
                Some((arr, slot)) => format!("{{\"array\": {}, \"slot\": {slot}}}", q(arr)),
                None => "null".into(),
            };
            let sched = match &l.sched {
                Some(SchedSpec::Simple) => "\"simple\"".to_string(),
                Some(SchedSpec::Interleave(k)) => format!("\"interleave({k})\""),
                Some(SchedSpec::Dynamic(k)) => format!("\"dynamic({k})\""),
                None => "null".into(),
            };
            s.push_str(&format!(
                "\n      {{\"file\": {}, \"line\": {}, \"var\": {}, \
                 \"affinity\": {aff}, \"nest\": {}, \"sched\": {sched}}}",
                q(&an.stripped[site.file].0),
                site.line,
                q(&site.var),
                l.nest
            ));
        }
        s.push_str("\n    ],\n    \"redistributes\": [");
        for (i, r) in self.redists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"array\": {}, \"before_line\": {}, \"items\": [{}]}}",
                q(&r.array),
                r.before_line,
                r.items
                    .iter()
                    .map(|i| i.json())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        s.push_str("\n    ],\n    \"resizes\": [");
        for (i, r) in self.resizes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"before_line\": {}, \"team\": {}}}",
                r.before_line, r.team
            ));
        }
        s.push_str("\n    ]\n  }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;

    #[test]
    fn annotate_produces_a_compilable_program() {
        let src = "\
      program p
      integer i, j
      real*8 a(16, 16)
      do j = 1, 16
        do i = 1, 16
          a(i, j) = i + j
        enddo
      enddo
      do i = 1, 16
        do j = 1, 16
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
";
        let an = analyze(&[("p.f".to_string(), src.to_string())]).unwrap();
        let plan = Plan {
            dists: vec![PlanDist {
                array: "a".into(),
                items: vec![Di::Star, Di::Block],
                reshape: false,
                onto: vec![],
            }],
            loops: vec![
                PlanLoop {
                    site: 0,
                    affinity: Some(("a".into(), 1)),
                    nest: false,
                    sched: None,
                },
                PlanLoop {
                    site: 1,
                    affinity: Some(("a".into(), 0)),
                    nest: false,
                    sched: None,
                },
            ],
            redists: vec![PlanRedist {
                array: "a".into(),
                before_line: an.sites[1].line,
                items: vec![Di::Block, Di::Star],
            }],
            resizes: vec![PlanResize {
                before_line: an.sites[1].line,
                team: 4,
            }],
        };
        let annotated = plan.annotate(&an);
        let text = &annotated[0].1;
        assert!(text.contains("c$distribute a(*, block)"), "{text}");
        assert!(text.contains("c$redistribute a(block, *)"), "{text}");
        assert!(text.contains("c$resize_team(4)"), "{text}");
        assert!(
            text.contains("c$doacross local(j, i) affinity(j) = data(a(1, j))"),
            "{text}"
        );
        let compiled = dsm_compile::compile_strings(
            &[("p.f", text.as_str())],
            &dsm_compile::OptConfig::default(),
        );
        assert!(compiled.is_ok(), "{compiled:?}\n{text}");
        let j = plan.to_json(&an);
        assert!(j.contains("\"redistributes\""), "{j}");
        assert!(j.contains("\"resizes\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
