//! Abstract interpretation of compiled constraints over **aggregated
//! attribute bounds** — the soundness layer beneath the multilevel
//! substrate hierarchy (`core::hierarchy`).
//!
//! A super-node of the coarsened host stands for a *set* of real nodes;
//! a super-edge for a set of real edges. Instead of a concrete
//! [`Value`](crate::Value) per attribute, each aggregate carries an
//! [`AttrBounds`]: the numeric range, the reachable booleans, the
//! (small) set of reachable strings, and whether any member *lacks* the
//! attribute. Evaluating a compiled constraint against such bounds
//! cannot produce a single truth value — it produces a tri-state
//! [`Verdict`]:
//!
//! * [`Verdict::Infeasible`] — **no** choice of concrete members can
//!   make the constraint evaluate to `true`. Pruning the aggregate is
//!   sound: coarse-feasible ⊇ fine-feasible.
//! * [`Verdict::Maybe`] — some member combination might pass (or the
//!   abstraction is too coarse to tell, or some combination would
//!   raise an evaluation error). The search must descend and decide
//!   concretely.
//!
//! The query side is never abstracted — only the host is coarsened —
//! so [`AbsEdgeCtx`]/[`AbsNodeCtx`] keep concrete query networks and
//! ids next to host-side [`BoundsMap`]s.
//!
//! The evaluator mirrors the concrete one (`compile.rs`) operation by
//! operation: Kleene `&&`/`||` over can-be-true/can-be-false/can-be-
//! missing flags, interval arithmetic with IEEE 754 edge cases (a
//! division whose denominator range crosses zero widens to the full
//! line *and* NaN; comparisons against a possible NaN can always be
//! false), `isBoundTo`'s vacuous truth when the query side may be
//! absent, and `has()` over the missing flag. Whenever a type error is
//! *possible* the result is flagged and the verdict degrades to
//! `Maybe` — an aggregate is never pruned on the strength of an error
//! a concrete evaluation would have reported.

use crate::ast::{BinOp, Func, Object, UnOp};
use crate::compile::{Compiled, Node};
use netgraph::{AttrId, AttrValue, EdgeId, Network, NodeId};
use std::sync::Arc;

/// Maximum distinct string values tracked exactly per attribute; above
/// this the bounds degrade to "any string" (sound, just less precise).
const MAX_TRACKED_STRS: usize = 8;

/// Tri-state outcome of evaluating a constraint against aggregated
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No concrete member combination can satisfy the constraint —
    /// pruning the aggregate is sound.
    Infeasible,
    /// Some combination might satisfy it (or might error): descend.
    Maybe,
}

/// Conservative summary of one attribute over a member set.
///
/// Every member contributes either its concrete value (via
/// [`AttrBounds::add`]) or its absence (via [`AttrBounds::add_missing`]);
/// two summaries over disjoint member sets combine with
/// [`AttrBounds::merge`]. The invariant is *containment*: for every
/// member, the member's concrete value (or absence) is represented —
/// [`AttrBounds::contains`] is the property tests' oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrBounds {
    /// Smallest non-NaN numeric value (`+∞` when no member is numeric).
    lo: f64,
    /// Largest non-NaN numeric value (`-∞` when no member is numeric).
    hi: f64,
    /// Some member carries a NaN numeric value.
    nan: bool,
    /// Some member carries `true`.
    can_true: bool,
    /// Some member carries `false`.
    can_false: bool,
    /// Distinct string values, sorted; meaningful only when `str_any`
    /// is false.
    strs: Vec<Arc<str>>,
    /// Too many distinct strings to track exactly — any string possible.
    str_any: bool,
    /// Some member lacks the attribute entirely.
    missing: bool,
}

impl Default for AttrBounds {
    fn default() -> Self {
        AttrBounds {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            nan: false,
            can_true: false,
            can_false: false,
            strs: Vec::new(),
            str_any: false,
            missing: false,
        }
    }
}

impl AttrBounds {
    /// Empty summary (no members recorded yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one member's concrete value.
    pub fn add(&mut self, value: &AttrValue) {
        match value {
            AttrValue::Num(x) => {
                if x.is_nan() {
                    self.nan = true;
                } else {
                    self.lo = self.lo.min(*x);
                    self.hi = self.hi.max(*x);
                }
            }
            AttrValue::Bool(true) => self.can_true = true,
            AttrValue::Bool(false) => self.can_false = true,
            AttrValue::Str(s) => self.add_str(s),
        }
    }

    fn add_str(&mut self, s: &Arc<str>) {
        if self.str_any {
            return;
        }
        if let Err(pos) = self.strs.binary_search_by(|e| e.as_ref().cmp(s.as_ref())) {
            if self.strs.len() >= MAX_TRACKED_STRS {
                self.str_any = true;
                self.strs.clear();
            } else {
                self.strs.insert(pos, s.clone());
            }
        }
    }

    /// Record one member that lacks the attribute.
    pub fn add_missing(&mut self) {
        self.missing = true;
    }

    /// Combine with a summary over a disjoint member set.
    pub fn merge(&mut self, other: &AttrBounds) {
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.nan |= other.nan;
        self.can_true |= other.can_true;
        self.can_false |= other.can_false;
        if other.str_any {
            self.str_any = true;
            self.strs.clear();
        } else if !self.str_any {
            for s in &other.strs {
                self.add_str(s);
            }
        }
        self.missing |= other.missing;
    }

    /// True when the member's concrete value (`Some`) or absence
    /// (`None`) is represented by this summary — the containment
    /// invariant the hierarchy's property tests check at every level.
    pub fn contains(&self, value: Option<&AttrValue>) -> bool {
        match value {
            None => self.missing,
            Some(AttrValue::Num(x)) => {
                if x.is_nan() {
                    self.nan
                } else {
                    self.lo <= *x && *x <= self.hi
                }
            }
            Some(AttrValue::Bool(true)) => self.can_true,
            Some(AttrValue::Bool(false)) => self.can_false,
            Some(AttrValue::Str(s)) => {
                self.str_any || self.strs.iter().any(|e| e.as_ref() == s.as_ref())
            }
        }
    }

    /// True when no member carries the attribute.
    pub fn is_missing_only(&self) -> bool {
        self.lo > self.hi
            && !self.nan
            && !self.can_true
            && !self.can_false
            && self.strs.is_empty()
            && !self.str_any
    }
}

/// Aggregated attribute summaries for one super-node or super-edge,
/// keyed by the **host schema's** [`AttrId`]s (the hierarchy is built
/// from the same network the constraint was compiled against, so ids
/// line up by construction). An id absent from the map means *no*
/// member carries that attribute — the missing-only summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundsMap {
    entries: Vec<(AttrId, AttrBounds)>,
}

impl BoundsMap {
    /// Empty map (every attribute missing on every member).
    pub fn new() -> Self {
        Self::default()
    }

    /// Summary for `id`, if any member carries it.
    pub fn get(&self, id: AttrId) -> Option<&AttrBounds> {
        self.entries
            .binary_search_by_key(&id, |(k, _)| *k)
            .ok()
            .map(|pos| &self.entries[pos].1)
    }

    /// Insert or replace the summary for `id`.
    pub fn set(&mut self, id: AttrId, bounds: AttrBounds) {
        match self.entries.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(pos) => self.entries[pos].1 = bounds,
            Err(pos) => self.entries.insert(pos, (id, bounds)),
        }
    }

    /// Iterate `(id, bounds)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrBounds)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Number of attributes summarized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no attribute is summarized (all missing).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact summary of one concrete host node (singleton member set).
    pub fn from_node(net: &Network, node: NodeId) -> BoundsMap {
        let mut out = BoundsMap::new();
        for (id, v) in net.node_attrs(node) {
            let mut b = AttrBounds::new();
            b.add(v);
            out.entries.push((id, b));
        }
        out
    }

    /// Exact summary of one concrete host edge (singleton member set).
    pub fn from_edge(net: &Network, edge: EdgeId) -> BoundsMap {
        let mut out = BoundsMap::new();
        for (id, v) in net.edge_attrs(edge) {
            let mut b = AttrBounds::new();
            b.add(v);
            out.entries.push((id, b));
        }
        out
    }

    /// Absorb a summary over a disjoint member set: attributes present
    /// on one side only gain the other side's missing possibility.
    /// Merges in place; only an attribute new to `self` allocates.
    pub fn merge_from(&mut self, other: &BoundsMap) {
        let mut i = 0;
        for (id, theirs) in &other.entries {
            // Present here, absent from `other`'s members.
            while i < self.entries.len() && self.entries[i].0 < *id {
                self.entries[i].1.add_missing();
                i += 1;
            }
            if i < self.entries.len() && self.entries[i].0 == *id {
                self.entries[i].1.merge(theirs);
            } else {
                // Present in `other`, absent from our members.
                let mut b = theirs.clone();
                b.add_missing();
                self.entries.insert(i, (*id, b));
            }
            i += 1;
        }
        for (_, ours) in &mut self.entries[i..] {
            ours.add_missing();
        }
    }
}

/// Abstract evaluation context for edge constraints: concrete query
/// side, aggregated host side (super-edge + its two endpoint
/// super-nodes).
#[derive(Debug, Clone, Copy)]
pub struct AbsEdgeCtx<'a> {
    /// Query (virtual) network — concrete, never coarsened.
    pub q: &'a Network,
    /// Query edge.
    pub v_edge: EdgeId,
    /// Query edge source.
    pub v_src: NodeId,
    /// Query edge target.
    pub v_dst: NodeId,
    /// Aggregated bounds of the host super-edge's member edges.
    pub r_edge: &'a BoundsMap,
    /// Aggregated node bounds of the super-node hosting `v_src`.
    pub r_src: &'a BoundsMap,
    /// Aggregated node bounds of the super-node hosting `v_dst`.
    pub r_dst: &'a BoundsMap,
}

/// Abstract evaluation context for node constraints.
#[derive(Debug, Clone, Copy)]
pub struct AbsNodeCtx<'a> {
    /// Query (virtual) network — concrete, never coarsened.
    pub q: &'a Network,
    /// Query node.
    pub v_node: NodeId,
    /// Aggregated node bounds of the candidate host super-node.
    pub r_node: &'a BoundsMap,
}

impl Compiled {
    /// Evaluate the edge constraint against aggregated host bounds.
    pub fn abs_edge(&self, ctx: &AbsEdgeCtx<'_>) -> Verdict {
        verdict(&eval_abs(&self.root, &AbsScope::Edge(ctx)))
    }

    /// Evaluate the node constraint against aggregated host bounds.
    pub fn abs_node(&self, ctx: &AbsNodeCtx<'_>) -> Verdict {
        verdict(&eval_abs(&self.root, &AbsScope::Node(ctx)))
    }
}

fn verdict(a: &Abs) -> Verdict {
    // `root_bool` accepts only a concrete Bool(true); Missing and
    // Bool(false) reject; any other type is an evaluation error, which
    // must surface concretely rather than be hidden by a prune.
    if a.bt || a.err || a.maybe_num() || a.maybe_str() {
        Verdict::Maybe
    } else {
        Verdict::Infeasible
    }
}

enum AbsScope<'c, 'a> {
    Edge(&'c AbsEdgeCtx<'a>),
    Node(&'c AbsNodeCtx<'a>),
}

/// Abstract value: the set of concrete [`Value`](crate::Value)s an
/// expression can take over all member choices, over-approximated as
/// per-type possibility flags (a numeric interval + NaN flag, reachable
/// booleans, a small string set, a missing flag) plus an error flag for
/// combinations that would make the concrete evaluator return `Err`.
#[derive(Debug, Clone)]
struct Abs {
    /// Can be a non-NaN number in `[lo, hi]`.
    num: bool,
    lo: f64,
    hi: f64,
    /// Can be NaN.
    nan: bool,
    /// Can be `Bool(true)` / `Bool(false)`.
    bt: bool,
    bf: bool,
    /// Reachable strings (sorted, exact unless `str_any`).
    strs: Vec<Arc<str>>,
    str_any: bool,
    /// Can be `Missing`.
    missing: bool,
    /// Some member combination makes the concrete evaluator error.
    err: bool,
}

impl Abs {
    fn bottom() -> Abs {
        Abs {
            num: false,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            nan: false,
            bt: false,
            bf: false,
            strs: Vec::new(),
            str_any: false,
            missing: false,
            err: false,
        }
    }

    fn number(x: f64) -> Abs {
        let mut a = Abs::bottom();
        if x.is_nan() {
            a.nan = true;
        } else {
            a.num = true;
            a.lo = x;
            a.hi = x;
        }
        a
    }

    fn boolean(b: bool) -> Abs {
        let mut a = Abs::bottom();
        a.bt = b;
        a.bf = !b;
        a
    }

    fn string(s: Arc<str>) -> Abs {
        let mut a = Abs::bottom();
        a.strs.push(s);
        a
    }

    fn missing() -> Abs {
        let mut a = Abs::bottom();
        a.missing = true;
        a
    }

    fn error() -> Abs {
        let mut a = Abs::bottom();
        a.err = true;
        a
    }

    fn from_bounds(b: &AttrBounds) -> Abs {
        Abs {
            num: b.lo <= b.hi,
            lo: b.lo,
            hi: b.hi,
            nan: b.nan,
            bt: b.can_true,
            bf: b.can_false,
            strs: b.strs.clone(),
            str_any: b.str_any,
            missing: b.missing,
            err: false,
        }
    }

    fn from_attr_value(v: Option<&AttrValue>) -> Abs {
        match v {
            None => Abs::missing(),
            Some(AttrValue::Num(x)) => Abs::number(*x),
            Some(AttrValue::Bool(b)) => Abs::boolean(*b),
            Some(AttrValue::Str(s)) => Abs::string(s.clone()),
        }
    }

    /// Can take any numeric value (including NaN).
    fn maybe_num(&self) -> bool {
        self.num || self.nan
    }

    fn maybe_bool(&self) -> bool {
        self.bt || self.bf
    }

    fn maybe_str(&self) -> bool {
        !self.strs.is_empty() || self.str_any
    }

    /// Can take any value at all (present, not an error path).
    fn maybe_present(&self) -> bool {
        self.maybe_num() || self.maybe_bool() || self.maybe_str()
    }
}

fn load_abs(scope: &AbsScope<'_, '_>, obj: Object, attr: Option<AttrId>) -> Abs {
    let Some(attr) = attr else {
        // Name unknown to the owning schema: always Missing, exactly as
        // in the concrete evaluator.
        return Abs::missing();
    };
    match scope {
        AbsScope::Edge(c) => match obj {
            // Concrete query side.
            Object::VEdge => Abs::from_attr_value(c.q.edge_attr(c.v_edge, attr)),
            Object::VSource => Abs::from_attr_value(c.q.node_attr(c.v_src, attr)),
            Object::VTarget => Abs::from_attr_value(c.q.node_attr(c.v_dst, attr)),
            // Aggregated host side.
            Object::REdge => bounds_abs(c.r_edge, attr),
            Object::RSource => bounds_abs(c.r_src, attr),
            Object::RTarget => bounds_abs(c.r_dst, attr),
            Object::VNode | Object::RNode => Abs::error(),
        },
        AbsScope::Node(c) => match obj {
            Object::VNode => Abs::from_attr_value(c.q.node_attr(c.v_node, attr)),
            Object::RNode => bounds_abs(c.r_node, attr),
            _ => Abs::error(),
        },
    }
}

fn bounds_abs(map: &BoundsMap, attr: AttrId) -> Abs {
    match map.get(attr) {
        Some(b) => Abs::from_bounds(b),
        None => Abs::missing(),
    }
}

fn eval_abs(node: &Node, scope: &AbsScope<'_, '_>) -> Abs {
    match node {
        Node::Num(x) => Abs::number(*x),
        Node::Str(s) => Abs::string(s.clone()),
        Node::Bool(b) => Abs::boolean(*b),
        Node::Attr(o, a) => load_abs(scope, *o, *a),
        Node::Unary(op, e) => {
            let v = eval_abs(e, scope);
            let mut out = Abs::bottom();
            out.err = v.err;
            out.missing = v.missing;
            match op {
                UnOp::Not => {
                    out.bt = v.bf;
                    out.bf = v.bt;
                    if v.maybe_num() || v.maybe_str() {
                        out.err = true;
                    }
                }
                UnOp::Neg => {
                    if v.num {
                        out.num = true;
                        out.lo = -v.hi;
                        out.hi = -v.lo;
                    }
                    out.nan = v.nan;
                    if v.maybe_bool() || v.maybe_str() {
                        out.err = true;
                    }
                }
            }
            out
        }
        Node::Binary(op, l, r) => abs_binary(*op, &eval_abs(l, scope), &eval_abs(r, scope)),
        Node::Call(f, args) => abs_call(*f, args, scope),
    }
}

/// `can_eq` / `can_ne` / type-error possibilities of `l == r` over all
/// concretizations. NaN compares unequal to everything (IEEE), so a
/// possible NaN on either side adds `can_ne`.
fn abs_eq(l: &Abs, r: &Abs) -> (bool, bool, bool) {
    let mut can_eq = false;
    let mut can_ne = false;
    let mut err = false;
    if l.num && r.num {
        can_eq |= l.lo <= r.hi && r.lo <= l.hi;
        // Unequal unless both sides are the same single point.
        can_ne |= !(l.lo == l.hi && r.lo == r.hi && l.lo == r.lo);
    }
    if (l.nan && r.maybe_num()) || (r.nan && l.maybe_num()) {
        can_ne = true;
    }
    if l.maybe_bool() && r.maybe_bool() {
        can_eq |= (l.bt && r.bt) || (l.bf && r.bf);
        can_ne |= (l.bt && r.bf) || (l.bf && r.bt);
    }
    if l.maybe_str() && r.maybe_str() {
        if l.str_any || r.str_any {
            can_eq = true;
            can_ne = true;
        } else {
            can_eq |= l.strs.iter().any(|s| r.strs.contains(s));
            can_ne |= !(l.strs.len() == 1 && r.strs.len() == 1 && l.strs[0] == r.strs[0]);
        }
    }
    // Any cross-type pairing is a concrete TypeMismatch.
    err |= l.maybe_num() && (r.maybe_bool() || r.maybe_str());
    err |= l.maybe_bool() && (r.maybe_num() || r.maybe_str());
    err |= l.maybe_str() && (r.maybe_num() || r.maybe_bool());
    (can_eq, can_ne, err)
}

/// Interval result of a numeric binary op over `[l.lo,l.hi] × [r.lo,r.hi]`,
/// as `(lo, hi, nan)`. Corner evaluation is exact for `+ - *` (extrema
/// of monotone/bilinear maps sit on box corners); division with a
/// zero-crossing denominator and non-singleton remainders widen to the
/// whole line plus NaN.
fn interval_arith(op: BinOp, l: &Abs, r: &Abs) -> (f64, f64, bool) {
    let mut nan = l.nan || r.nan;
    if !(l.num && r.num) {
        return (f64::INFINITY, f64::NEG_INFINITY, nan);
    }
    match op {
        BinOp::Div if r.lo <= 0.0 && r.hi >= 0.0 => {
            // x/0 is ±∞ and 0/0 is NaN: the result is unbounded.
            (f64::NEG_INFINITY, f64::INFINITY, true)
        }
        BinOp::Rem => {
            if l.lo == l.hi && r.lo == r.hi {
                let v = l.lo % r.lo;
                if v.is_nan() {
                    (f64::INFINITY, f64::NEG_INFINITY, true)
                } else {
                    (v, v, nan)
                }
            } else {
                (f64::NEG_INFINITY, f64::INFINITY, true)
            }
        }
        _ => {
            let apply = |a: f64, b: f64| match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => unreachable!("numeric op"),
            };
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for a in [l.lo, l.hi] {
                for b in [r.lo, r.hi] {
                    let v = apply(a, b);
                    if v.is_nan() {
                        // ∞−∞, 0·∞, ∞/∞ corners.
                        nan = true;
                    } else {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
            (lo, hi, nan)
        }
    }
}

fn abs_binary(op: BinOp, l: &Abs, r: &Abs) -> Abs {
    let mut out = Abs::bottom();
    match op {
        BinOp::And => {
            // Short-circuit: a definite `false` left arm hides the right
            // arm entirely (including its errors).
            out.bt = l.bt && r.bt;
            out.bf = l.bf || ((l.bt || l.missing) && r.bf);
            out.missing = (l.missing && (r.bt || r.missing)) || (l.bt && r.missing);
            out.err = l.err
                || (l.maybe_num() || l.maybe_str())
                || ((l.bt || l.missing) && (r.err || r.maybe_num() || r.maybe_str()));
            out
        }
        BinOp::Or => {
            out.bt = l.bt || ((l.bf || l.missing) && r.bt);
            out.bf = l.bf && r.bf;
            out.missing = (l.missing && (r.bf || r.missing)) || (l.bf && r.missing);
            out.err = l.err
                || (l.maybe_num() || l.maybe_str())
                || ((l.bf || l.missing) && (r.err || r.maybe_num() || r.maybe_str()));
            out
        }
        _ => {
            // Strict operators: Missing on either side yields Missing;
            // the value result ranges over present×present combos.
            out.err = l.err || r.err;
            out.missing = l.missing || r.missing;
            let both_present = l.maybe_present() && r.maybe_present();
            match op {
                BinOp::Eq | BinOp::Ne => {
                    if both_present {
                        let (eq, ne, err) = abs_eq(l, r);
                        out.err |= err;
                        if op == BinOp::Eq {
                            out.bt = eq;
                            out.bf = ne;
                        } else {
                            out.bt = ne;
                            out.bf = eq;
                        }
                    }
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if both_present {
                        out.err |=
                            l.maybe_bool() || l.maybe_str() || r.maybe_bool() || r.maybe_str();
                        if l.num && r.num {
                            // ∃x∈l, y∈r with x<y ⇔ l.lo < r.hi, etc.
                            let (t, f) = match op {
                                BinOp::Lt => (l.lo < r.hi, l.hi >= r.lo),
                                BinOp::Le => (l.lo <= r.hi, l.hi > r.lo),
                                BinOp::Gt => (l.hi > r.lo, l.lo <= r.hi),
                                BinOp::Ge => (l.hi >= r.lo, l.lo < r.hi),
                                _ => unreachable!(),
                            };
                            out.bt = t;
                            out.bf = f;
                        }
                        if (l.nan && r.maybe_num()) || (r.nan && l.maybe_num()) {
                            // Any comparison with NaN is false.
                            out.bf = true;
                        }
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                    if both_present {
                        out.err |=
                            l.maybe_bool() || l.maybe_str() || r.maybe_bool() || r.maybe_str();
                        if l.maybe_num() && r.maybe_num() {
                            let (lo, hi, nan) = interval_arith(op, l, r);
                            if lo <= hi {
                                out.num = true;
                                out.lo = lo;
                                out.hi = hi;
                            }
                            out.nan = nan;
                        }
                    }
                }
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
            out
        }
    }
}

fn abs_call(f: Func, args: &[Node], scope: &AbsScope<'_, '_>) -> Abs {
    match f {
        Func::IsBoundTo => {
            let a = eval_abs(&args[0], scope);
            let b = eval_abs(&args[1], scope);
            let mut out = Abs::bottom();
            out.err = a.err;
            // Query side absent: vacuously true (the right arm is never
            // evaluated on that path, so its errors stay hidden).
            if a.missing {
                out.bt = true;
            }
            if a.maybe_present() {
                out.err |= b.err;
                if b.missing {
                    out.bf = true;
                }
                if b.maybe_present() {
                    let (eq, ne, err) = abs_eq(&a, &b);
                    out.bt |= eq;
                    out.bf |= ne;
                    out.err |= err;
                }
            }
            out
        }
        Func::Has => {
            let a = eval_abs(&args[0], scope);
            let mut out = Abs::bottom();
            out.err = a.err;
            out.bt = a.maybe_present();
            out.bf = a.missing;
            out
        }
        Func::Abs | Func::Sqrt => {
            let a = eval_abs(&args[0], scope);
            let mut out = Abs::bottom();
            out.err = a.err || a.maybe_bool() || a.maybe_str();
            out.missing = a.missing;
            if f == Func::Abs {
                if a.num {
                    out.num = true;
                    if a.lo <= 0.0 && a.hi >= 0.0 {
                        out.lo = 0.0;
                    } else {
                        out.lo = a.lo.abs().min(a.hi.abs());
                    }
                    out.hi = a.lo.abs().max(a.hi.abs());
                }
                out.nan = a.nan;
            } else {
                // sqrt of a negative is NaN.
                if a.num && a.hi >= 0.0 {
                    out.num = true;
                    out.lo = a.lo.max(0.0).sqrt();
                    out.hi = a.hi.sqrt();
                }
                out.nan = a.nan || (a.num && a.lo < 0.0);
            }
            out
        }
        Func::Min | Func::Max => {
            let a = eval_abs(&args[0], scope);
            let b = eval_abs(&args[1], scope);
            let mut out = Abs::bottom();
            out.err = a.err
                || b.err
                || a.maybe_bool()
                || a.maybe_str()
                || b.maybe_bool()
                || b.maybe_str();
            out.missing = a.missing || b.missing;
            // f64::min/max ignore a NaN operand, so NaN survives only
            // when both sides are NaN; a one-sided NaN yields the other
            // side's value, which its own range already covers.
            match (a.num, b.num) {
                (true, true) => {
                    out.num = true;
                    if f == Func::Min {
                        out.lo = a.lo.min(b.lo);
                        out.hi = a.hi.min(b.hi);
                    } else {
                        out.lo = a.lo.max(b.lo);
                        out.hi = a.hi.max(b.hi);
                    }
                    if a.nan {
                        out.lo = out.lo.min(b.lo);
                        out.hi = out.hi.max(b.hi);
                    }
                    if b.nan {
                        out.lo = out.lo.min(a.lo);
                        out.hi = out.hi.max(a.hi);
                    }
                }
                (true, false) => {
                    out.num = b.nan && a.num;
                    out.lo = a.lo;
                    out.hi = a.hi;
                }
                (false, true) => {
                    out.num = a.nan && b.num;
                    out.lo = b.lo;
                    out.hi = b.hi;
                }
                (false, false) => {}
            }
            out.nan = a.nan && b.nan;
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use netgraph::Direction;

    fn query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("qa");
        let b = q.add_node("qb");
        let e = q.add_edge(a, b);
        q.set_edge_attr(e, "avgDelay", 100.0);
        q.set_node_attr(a, "osType", "linux");
        q.set_node_attr(a, "cpu", 2.0);
        q
    }

    /// A host whose schema carries the attributes the tests aggregate.
    fn host() -> Network {
        let mut r = Network::new(Direction::Undirected);
        let u = r.add_node("u");
        let v = r.add_node("v");
        let e = r.add_edge(u, v);
        r.set_edge_attr(e, "avgDelay", 95.0);
        r.set_node_attr(u, "osType", "linux");
        r.set_node_attr(u, "cpu", 4.0);
        r.set_node_attr(v, "region", "hot");
        r
    }

    fn bounds_num(lo: f64, hi: f64) -> AttrBounds {
        let mut b = AttrBounds::new();
        b.add(&AttrValue::Num(lo));
        b.add(&AttrValue::Num(hi));
        b
    }

    fn compile(src: &str, q: &Network, r: &Network) -> Compiled {
        Compiled::new(&parse(src).unwrap(), q, r)
    }

    fn edge_verdict(
        src: &str,
        q: &Network,
        r: &Network,
        r_edge: &BoundsMap,
        r_src: &BoundsMap,
        r_dst: &BoundsMap,
    ) -> Verdict {
        compile(src, q, r).abs_edge(&AbsEdgeCtx {
            q,
            v_edge: EdgeId(0),
            v_src: NodeId(0),
            v_dst: NodeId(1),
            r_edge,
            r_src,
            r_dst,
        })
    }

    #[test]
    fn delay_window_prunes_disjoint_range() {
        let (q, r) = (query(), host());
        let id = r.schema().get("avgDelay").unwrap();
        let mut near = BoundsMap::new();
        near.set(id, bounds_num(90.0, 105.0));
        let mut far = BoundsMap::new();
        far.set(id, bounds_num(500.0, 900.0));
        let empty = BoundsMap::new();
        let expr = "vEdge.avgDelay >= 0.9*rEdge.avgDelay && vEdge.avgDelay <= 1.1*rEdge.avgDelay";
        assert_eq!(
            edge_verdict(expr, &q, &r, &near, &empty, &empty),
            Verdict::Maybe
        );
        assert_eq!(
            edge_verdict(expr, &q, &r, &far, &empty, &empty),
            Verdict::Infeasible
        );
    }

    #[test]
    fn missing_attr_is_a_sound_prune_for_strict_compare() {
        let (q, r) = (query(), host());
        // No member carries `avgDelay`: the concrete result is Missing
        // for every member, which the root maps to false.
        let empty = BoundsMap::new();
        assert_eq!(
            edge_verdict("rEdge.avgDelay < 10.0", &q, &r, &empty, &empty, &empty),
            Verdict::Infeasible
        );
        // But an || with a true arm stays feasible.
        assert_eq!(
            edge_verdict(
                "rEdge.avgDelay < 10.0 || true",
                &q,
                &r,
                &empty,
                &empty,
                &empty
            ),
            Verdict::Maybe
        );
    }

    #[test]
    fn string_region_prunes() {
        let (q, r) = (query(), host());
        let id = r.schema().get("region").unwrap();
        let mut hot = AttrBounds::new();
        hot.add(&AttrValue::str("hot"));
        hot.add(&AttrValue::str("cold"));
        let mut only_cold = AttrBounds::new();
        only_cold.add(&AttrValue::str("cold"));
        let mut m_hot = BoundsMap::new();
        m_hot.set(id, hot);
        let mut m_cold = BoundsMap::new();
        m_cold.set(id, only_cold);
        let empty = BoundsMap::new();
        let expr = "rSource.region == \"hot\"";
        assert_eq!(
            edge_verdict(expr, &q, &r, &empty, &m_hot, &empty),
            Verdict::Maybe
        );
        assert_eq!(
            edge_verdict(expr, &q, &r, &empty, &m_cold, &empty),
            Verdict::Infeasible
        );
    }

    #[test]
    fn is_bound_to_vacuous_when_query_side_missing() {
        let (q, r) = (query(), host());
        let empty = BoundsMap::new();
        // qb has no osType → vacuously true regardless of host bounds.
        assert_eq!(
            edge_verdict(
                "isBoundTo(vTarget.osType, rTarget.osType)",
                &q,
                &r,
                &empty,
                &empty,
                &empty
            ),
            Verdict::Maybe
        );
        // qa has osType=linux and no host member carries osType → false.
        assert_eq!(
            edge_verdict(
                "isBoundTo(vSource.osType, rSource.osType)",
                &q,
                &r,
                &empty,
                &empty,
                &empty
            ),
            Verdict::Infeasible
        );
    }

    #[test]
    fn possible_type_error_never_prunes() {
        let (q, r) = (query(), host());
        let id = r.schema().get("osType").unwrap();
        let mut m = BoundsMap::new();
        let mut b = AttrBounds::new();
        b.add(&AttrValue::str("linux"));
        m.set(id, b);
        let empty = BoundsMap::new();
        // Comparing a string bound with a number would error concretely.
        assert_eq!(
            edge_verdict("rSource.osType > 3.0", &q, &r, &empty, &m, &empty),
            Verdict::Maybe
        );
    }

    #[test]
    fn division_by_zero_crossing_range_stays_maybe() {
        let (q, r) = (query(), host());
        let id = r.schema().get("avgDelay").unwrap();
        let mut m = BoundsMap::new();
        m.set(id, bounds_num(-1.0, 1.0));
        let empty = BoundsMap::new();
        // 1/x over [-1,1] reaches ±∞; any comparison outcome possible.
        assert_eq!(
            edge_verdict("1.0 / rEdge.avgDelay > 1000.0", &q, &r, &m, &empty, &empty),
            Verdict::Maybe
        );
    }

    #[test]
    fn bounds_contains_and_merge() {
        let mut a = AttrBounds::new();
        a.add(&AttrValue::Num(3.0));
        a.add(&AttrValue::str("x"));
        let mut b = AttrBounds::new();
        b.add(&AttrValue::Num(10.0));
        b.add_missing();
        a.merge(&b);
        assert!(a.contains(Some(&AttrValue::Num(3.0))));
        assert!(a.contains(Some(&AttrValue::Num(10.0))));
        assert!(a.contains(Some(&AttrValue::Num(7.0)))); // interval
        assert!(!a.contains(Some(&AttrValue::Num(11.0))));
        assert!(a.contains(Some(&AttrValue::str("x"))));
        assert!(!a.contains(Some(&AttrValue::str("y"))));
        assert!(a.contains(None));
    }

    #[test]
    fn bounds_map_merge_tracks_one_sided_attrs() {
        let mut r = Network::new(Direction::Undirected);
        let u = r.add_node("u");
        let v = r.add_node("v");
        r.set_node_attr(u, "cpu", 4.0);
        r.set_node_attr(v, "mem", 8.0);
        let cpu = r.schema().get("cpu").unwrap();
        let mem = r.schema().get("mem").unwrap();
        let mut m = BoundsMap::from_node(&r, u);
        m.merge_from(&BoundsMap::from_node(&r, v));
        // cpu: present on u, missing on v.
        let b = m.get(cpu).unwrap();
        assert!(b.contains(Some(&AttrValue::Num(4.0))));
        assert!(b.contains(None));
        let b = m.get(mem).unwrap();
        assert!(b.contains(Some(&AttrValue::Num(8.0))));
        assert!(b.contains(None));
    }

    #[test]
    fn string_overflow_degrades_to_any() {
        let mut b = AttrBounds::new();
        for i in 0..20 {
            b.add(&AttrValue::str(format!("s{i}")));
        }
        assert!(b.contains(Some(&AttrValue::str("neverseen"))));
    }

    #[test]
    fn node_context_abstract_eval() {
        let (q, r) = (query(), host());
        let cpu = r.schema().get("cpu").unwrap();
        let c = compile("rNode.cpu >= vNode.cpu", &q, &r);
        let mut strong = BoundsMap::new();
        strong.set(cpu, bounds_num(2.0, 16.0));
        let mut weak = BoundsMap::new();
        weak.set(cpu, bounds_num(0.0, 1.0));
        let ctx = |m: &BoundsMap| -> Verdict {
            c.abs_node(&AbsNodeCtx {
                q: &q,
                v_node: NodeId(0), // cpu = 2.0
                r_node: m,
            })
        };
        assert_eq!(ctx(&strong), Verdict::Maybe);
        assert_eq!(ctx(&weak), Verdict::Infeasible);
    }
}
