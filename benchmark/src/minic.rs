//! Seeded MiniC programs for the daemon's raw-source requests.
//!
//! Every seed gives a distinct program, so each request compiles and
//! misses the cache, but the shape is fixed — same loop trip counts, same
//! call structure — so every program runs for about the same number of
//! instructions (roughly 50k) and never traps.

use crate::splitmix64;

/// Binary operators the generated kernels draw from.
const OPS: [&str; 4] = ["+", "^", "|", "-"];

pub fn program(seed: u64) -> String {
    let mut state = seed;
    let mut next = |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let coef: Vec<String> = (0..8).map(|_| (1 + next(97)).to_string()).collect();
    let (c1, c2, c3) = (3 + next(29), 1 + next(61), 5 + next(17));
    let threshold = 200 + next(600);
    let stride = 2 * next(16) + 1;
    let op1 = OPS[next(4) as usize];
    let op2 = OPS[next(4) as usize];
    let start = next(1000);
    format!(
        r#"
int tab[64];
int coef[8] = {{{coef}}};

int mix(int x, int y) {{
    return ((x * {c1}) {op1} (y + {c2})) & 1023;
}}

int step(int i) {{
    int v = tab[i & 63];
    if (v > {threshold}) return v - {c3};
    return v {op2} coef[i & 7];
}}

int main() {{
    int i;
    int j;
    int s = {start};
    for (i = 0; i < 64; i++) tab[i] = mix(i, coef[i & 7]);
    for (j = 0; j < 10; j++) {{
        for (i = 0; i < 64; i++) {{
            s = (s + step(i + j)) & 65535;
            tab[(i * {stride}) & 63] = mix(s, i);
        }}
    }}
    return s & 255;
}}
"#,
        coef = coef.join(", ")
    )
}
