//! The README is a map of the workspace, so it is checked like code: its
//! relative links resolve, every bracketed text is a link, and it stays
//! short. Its Rust blocks run as doctests of the root `src/lib.rs`.

use std::path::Path;

const README: &str = include_str!("../README.md");

/// The most lines the README may have.
const MAX_LINES: usize = 400;

/// One bracketed text outside code: its 1-based line, and the target in
/// the parentheses right after it, if there are any.
struct Bracket {
    line: usize,
    target: Option<String>,
}

/// Every top-level `[…]` of the README's prose. Fenced blocks and
/// backtick code spans are skipped, so `vec![…]` or `[--smoke]` in code
/// is not a link.
fn brackets() -> Vec<Bracket> {
    let mut fenced = false;
    let prose: Vec<&str> = README
        .lines()
        .map(|line| {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            if fence || fenced {
                ""
            } else {
                line
            }
        })
        .collect();
    let prose: Vec<char> = prose.join("\n").chars().collect();

    let mut found = Vec::new();
    let (mut line, mut open_line, mut depth) = (1, 1, 0);
    let mut code_ticks = 0;
    let mut i = 0;
    while i < prose.len() {
        let c = prose[i];
        if c == '`' {
            let run = prose[i..].iter().take_while(|&&t| t == '`').count();
            if code_ticks == 0 {
                code_ticks = run;
            } else if code_ticks == run {
                code_ticks = 0;
            }
            i += run;
            continue;
        }
        match c {
            '\n' => line += 1,
            _ if code_ticks > 0 => {}
            '[' => {
                if depth == 0 {
                    open_line = line;
                }
                depth += 1;
            }
            ']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    let target = (prose.get(i + 1) == Some(&'(')).then(|| {
                        let rest = &prose[i + 2..];
                        let end = rest.iter().position(|&t| t == ')').unwrap_or(rest.len());
                        rest[..end].iter().collect::<String>()
                    });
                    found.push(Bracket { line: open_line, target });
                }
            }
            _ => {}
        }
        i += 1;
    }
    found
}

#[test]
fn readme_relative_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for Bracket { line, target } in brackets() {
        let Some(target) = target else { continue };
        let path = target.split('#').next().unwrap_or("");
        if path.is_empty() || path.contains("://") {
            continue;
        }
        assert!(root.join(path).exists(), "README.md:{line} links to missing `{path}`");
        checked += 1;
    }
    assert!(checked > 0, "no relative link found: is the parser reading the README?");
}

#[test]
fn readme_bracketed_text_is_always_a_link() {
    let bare: Vec<usize> =
        brackets().iter().filter(|b| b.target.is_none()).map(|b| b.line).collect();
    assert!(
        bare.is_empty(),
        "README.md lines {bare:?}: `[text]` with no `(target)` renders as literal brackets"
    );
}

#[test]
fn readme_is_at_most_400_lines() {
    let lines = README.lines().count();
    assert!(lines <= MAX_LINES, "README.md has {lines} lines; the map holds at most {MAX_LINES}");
}
