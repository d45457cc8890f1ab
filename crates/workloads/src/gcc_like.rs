//! `gcc` analog: a compiler pass pipeline.
//!
//! Mirrors SPEC '95 `126.gcc`: lexing a source text, building expression
//! trees in a node pool, running a constant-folding + constant-propagation
//! pass, and emitting linearized code. Like gcc, it has many static
//! instructions spread across many functions, branch-heavy dispatch on
//! token/node kinds, and the *lowest* average repeats of the suite (the
//! data values churn with the source text).
//!
//! Source language: statements `v = expr;` where `v` is a lowercase
//! variable and `expr` uses `+ - * ( )`, integer literals, and variables.
//!
//! Input stream: `[total: i32][source text]`. Output: emitted-op counts
//! and a fold checksum.

use crate::inputs::{rng, InputStream};
use crate::rng::Rng;
use crate::{Scale, Workload};

/// The workload descriptor.
pub fn workload() -> Workload {
    Workload { name: "gcc", spec_analog: "126.gcc", source: SOURCE, input_fn: input }
}

/// Generates a random well-formed source program.
pub(crate) fn gen_source(r: &mut Rng, approx_len: usize) -> Vec<u8> {
    fn gen_expr(r: &mut Rng, out: &mut Vec<u8>, depth: u32) {
        if depth >= 4 || r.gen_bool(0.4) {
            if r.gen_bool(0.5) {
                push_decimal(out, r.gen_range(0..500));
            } else {
                out.push(b'a' + r.gen_range(0..8) as u8);
            }
            return;
        }
        let op = [b'+', b'-', b'*'][r.gen_range(0..3)];
        let paren = r.gen_bool(0.4);
        if paren {
            out.push(b'(');
        }
        gen_expr(r, out, depth + 1);
        out.push(op);
        gen_expr(r, out, depth + 1);
        if paren {
            out.push(b')');
        }
    }
    let mut out = Vec::with_capacity(approx_len + 32);
    while out.len() < approx_len {
        out.push(b'a' + r.gen_range(0..8) as u8);
        out.push(b'=');
        gen_expr(r, &mut out, 0);
        out.push(b';');
    }
    out
}

/// Appends the decimal digits of `n`, as `n.to_string()` would write
/// them, without allocating.
fn push_decimal(out: &mut Vec<u8>, n: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    let mut n = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Builds the input stream: header plus generated source.
pub fn input(scale: Scale, seed: u64) -> Vec<u8> {
    let approx = match scale {
        Scale::Tiny => 2_000,
        Scale::Small => 20_000,
        Scale::Full => 150_000,
    };
    let mut r = rng(seed ^ 0x6cc);
    let src = gen_source(&mut r, approx);
    let mut s = InputStream::new();
    s.int(src.len() as i32).bytes(&src);
    s.finish()
}

const SOURCE: &str = r#"
// ---- gcc: lex -> parse -> fold/propagate -> emit ----
char src[4096];
int src_len;
int src_pos;

// Token kinds.
// 0 eof, 1 num, 2 var, 3 +, 4 -, 5 *, 6 (, 7 ), 8 =, 9 ;
int tok_kind;
int tok_val;

// AST node pool: kind 1 num, 2 var, 3/4/5 binary ops. Lives on the
// heap, as gcc's obstacks do.
int* node_kind;
int* node_val;
int* node_l;
int* node_r;
int n_nodes;

// Constant propagation state.
int var_known[8];
int var_val[8];

// Emission.
char outbuf[512];
int outlen = 0;
int ops_emitted = 0;
int folds = 0;
int fold_checksum = 0;

int flush_out() {
    if (outlen > 0) write(outbuf, outlen);
    outlen = 0;
    return 0;
}

int put_byte(int b) {
    outbuf[outlen] = b & 255;
    outlen = outlen + 1;
    if (outlen == 512) flush_out();
    return 0;
}

int next_token() {
    if (src_pos >= src_len) {
        tok_kind = 0;
        return 0;
    }
    int c = src[src_pos];
    src_pos = src_pos + 1;
    if (c >= '0' && c <= '9') {
        int v = c - '0';
        while (src_pos < src_len && src[src_pos] >= '0' && src[src_pos] <= '9') {
            v = v * 10 + (src[src_pos] - '0');
            src_pos = src_pos + 1;
        }
        tok_kind = 1;
        tok_val = v;
        return 1;
    }
    if (c >= 'a' && c <= 'z') {
        tok_kind = 2;
        tok_val = (c - 'a') & 7;
        return 2;
    }
    if (c == '+') { tok_kind = 3; return 3; }
    if (c == '-') { tok_kind = 4; return 4; }
    if (c == '*') { tok_kind = 5; return 5; }
    if (c == '(') { tok_kind = 6; return 6; }
    if (c == ')') { tok_kind = 7; return 7; }
    if (c == '=') { tok_kind = 8; return 8; }
    if (c == ';') { tok_kind = 9; return 9; }
    tok_kind = 0;
    return 0;
}

int new_node(int kind, int val, int l, int r) {
    if (n_nodes >= 512) return 0;
    node_kind[n_nodes] = kind;
    node_val[n_nodes] = val;
    node_l[n_nodes] = l;
    node_r[n_nodes] = r;
    n_nodes = n_nodes + 1;
    return n_nodes - 1;
}

// Forward calls need no prototype: name resolution is whole-program.
int parse_factor() {
    if (tok_kind == 1) {
        int n = new_node(1, tok_val, 0 - 1, 0 - 1);
        next_token();
        return n;
    }
    if (tok_kind == 2) {
        int n = new_node(2, tok_val, 0 - 1, 0 - 1);
        next_token();
        return n;
    }
    if (tok_kind == 6) {
        next_token();
        int n = parse_expr();
        if (tok_kind == 7) next_token();
        return n;
    }
    // Error recovery: treat as zero.
    next_token();
    return new_node(1, 0, 0 - 1, 0 - 1);
}

int parse_term() {
    int l = parse_factor();
    while (tok_kind == 5) {
        next_token();
        int r = parse_factor();
        l = new_node(5, 0, l, r);
    }
    return l;
}

int parse_expr() {
    int l = parse_term();
    while (tok_kind == 3 || tok_kind == 4) {
        int op = tok_kind;
        next_token();
        int r = parse_term();
        l = new_node(op, 0, l, r);
    }
    return l;
}

// Folding: constant-propagates known variables, then collapses
// constant binary subtrees in place.
int fold(int n) {
    int k = node_kind[n];
    if (k == 1) return 1;
    if (k == 2) {
        int v = node_val[n];
        if (var_known[v]) {
            node_kind[n] = 1;
            node_val[n] = var_val[v];
            folds = folds + 1;
            return 1;
        }
        return 0;
    }
    int lc = fold(node_l[n]);
    int rc = fold(node_r[n]);
    if (lc && rc) {
        int a = node_val[node_l[n]];
        int b = node_val[node_r[n]];
        int v = 0;
        if (k == 3) v = a + b;
        if (k == 4) v = a - b;
        if (k == 5) v = a * b;
        node_kind[n] = 1;
        node_val[n] = v;
        folds = folds + 1;
        fold_checksum = fold_checksum * 33 + v;
        return 1;
    }
    return 0;
}

// Emit postfix stack code: 'C' const, 'L' var load, '+', '-', '*'.
int emit(int n) {
    int k = node_kind[n];
    if (k == 1) {
        put_byte('C');
        put_byte(node_val[n] & 255);
        put_byte((node_val[n] >> 8) & 255);
        ops_emitted = ops_emitted + 1;
        return 1;
    }
    if (k == 2) {
        put_byte('L');
        put_byte(node_val[n]);
        ops_emitted = ops_emitted + 1;
        return 1;
    }
    emit(node_l[n]);
    emit(node_r[n]);
    if (k == 3) put_byte('+');
    if (k == 4) put_byte('-');
    if (k == 5) put_byte('*');
    ops_emitted = ops_emitted + 1;
    return 1;
}

int process_chunk() {
    src_pos = 0;
    next_token();
    while (tok_kind != 0) {
        if (tok_kind != 2) {
            next_token();
            continue;
        }
        int v = tok_val;
        next_token();
        if (tok_kind != 8) continue;
        next_token();
        n_nodes = 0;
        int root = parse_expr();
        fold(root);
        put_byte('S');
        put_byte(v);
        emit(root);
        if (node_kind[root] == 1) {
            var_known[v] = 1;
            var_val[v] = node_val[root];
        } else {
            var_known[v] = 0;
        }
        if (tok_kind == 9) next_token();
    }
    return 0;
}

int main() {
    int total = read_int();
    node_kind = sbrk(512 * 4);
    node_val = sbrk(512 * 4);
    node_l = sbrk(512 * 4);
    node_r = sbrk(512 * 4);
    int processed = 0;
    while (processed < total) {
        int want = total - processed;
        if (want > 4096) want = 4096;
        int n = read(src, want);
        if (n == 0) break;
        src_len = n;
        process_chunk();
        processed = processed + n;
    }
    flush_out();
    write_int(ops_emitted);
    write_int(folds);
    write_int(fold_checksum);
    return 0;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_sim::{Machine, RunOutcome};

    fn run_src(src: &[u8]) -> (Vec<u8>, i32, i32) {
        let image = workload().build().unwrap();
        let mut m = Machine::new(&image);
        let mut s = InputStream::new();
        s.int(src.len() as i32).bytes(src);
        m.set_input(s.finish());
        assert_eq!(m.run(300_000_000, |_| {}).unwrap(), RunOutcome::Exited(0));
        let out = m.output().to_vec();
        let n = out.len();
        let ops = i32::from_le_bytes(out[n - 12..n - 8].try_into().unwrap());
        let folds = i32::from_le_bytes(out[n - 8..n - 4].try_into().unwrap());
        (out[..n - 12].to_vec(), ops, folds)
    }

    /// Executes the emitted postfix code and returns final variable
    /// values — validating parse+fold+emit end to end.
    fn exec_postfix(code: &[u8]) -> [i32; 8] {
        let mut vars = [0i32; 8];
        let mut stack: Vec<i32> = Vec::new();
        let mut i = 0;
        let mut pending: Option<usize> = None;
        while i < code.len() {
            match code[i] {
                b'S' => {
                    if let Some(v) = pending.take() {
                        vars[v] = stack.pop().expect("value for assignment");
                    }
                    pending = Some(code[i + 1] as usize);
                    i += 2;
                }
                b'C' => {
                    let v = i32::from(code[i + 1]) | (i32::from(code[i + 2]) << 8);
                    stack.push(v);
                    i += 3;
                }
                b'L' => {
                    stack.push(vars[code[i + 1] as usize]);
                    i += 2;
                }
                op @ (b'+' | b'-' | b'*') => {
                    let b = stack.pop().unwrap();
                    let a = stack.pop().unwrap();
                    stack.push(match op {
                        b'+' => a.wrapping_add(b),
                        b'-' => a.wrapping_sub(b),
                        _ => a.wrapping_mul(b),
                    });
                    i += 1;
                }
                other => panic!("bad opcode {other}"),
            }
        }
        if let Some(v) = pending {
            vars[v] = stack.pop().expect("value for final assignment");
        }
        vars
    }

    #[test]
    fn folds_constants_and_emits_correct_code() {
        // a = 2 + 3 * 4  -> fully folded to 14.
        // b = a + 1      -> a is known, folds to 15.
        let (code, ops, folds) = run_src(b"a=2+3*4;b=a+1;");
        assert!(folds >= 3, "folds = {folds}");
        let vars = exec_postfix(&code);
        assert_eq!(vars[0], 14);
        assert_eq!(vars[1], 15);
        // Fully folded statements emit exactly one constant each.
        assert_eq!(ops, 2);
    }

    #[test]
    fn small_values_survive_emission_exactly() {
        // Generated sources stay in 16-bit constant range for small
        // depths; compare against direct evaluation.
        let (code, _, _) = run_src(b"a=100;b=a*3;c=(b-50)+a;");
        let vars = exec_postfix(&code);
        assert_eq!(vars[0], 100);
        assert_eq!(vars[1], 300);
        assert_eq!(vars[2], 350);
    }

    #[test]
    fn tiny_inputs_keep_their_bytes() {
        // Cache keys and the table goldens hash these bytes; the values
        // were taken from the generator that formatted each number with
        // `to_string`.
        let pins = [
            (1998, 2038, 0xc603_7da0_6d4d_6e17, "c=(f-(a*(d+275))+h);e=(263-63+e-(240-e)+f-337)*c"),
            (7, 2029, 0xc119_fdc6_8f7a_92fe, "d=d;h=b;a=((253+b*b-h-271+h-a)-b);d=(126*(37+f))"),
            (
                0xdead_beef,
                2005,
                0x057e_d4d8_b712_3a38,
                "f=368;a=((d*(g+f))+((f*27)+472+341))+c;c=382;h=a",
            ),
        ];
        for (seed, len, fnv, head) in pins {
            let bytes = input(Scale::Tiny, seed);
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            assert_eq!((bytes.len(), hash), (len, fnv), "seed {seed}");
            assert_eq!(&bytes[4..4 + head.len()], head.as_bytes(), "seed {seed}");
        }
    }

    #[test]
    fn decimals_match_to_string() {
        let mut out = Vec::new();
        for n in [0, 7, 10, 99, 100, 499, 500, 65_535, u32::MAX] {
            out.clear();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    #[test]
    fn generated_sources_process_cleanly() {
        let mut r = rng(31);
        let src = gen_source(&mut r, 1_500);
        let (code, ops, folds) = run_src(&src);
        assert!(ops > 0 && folds > 0);
        assert!(!code.is_empty());
        // Must not panic: emitted stream is well-formed.
        let _ = exec_postfix(&code);
    }
}
