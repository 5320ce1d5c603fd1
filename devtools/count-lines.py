#!/usr/bin/env python3
"""Non-test line counts of the workspace's library and binary sources.

    devtools/count-lines.py [<checkout> [<file> ...]]

Counts the lines of every `crates/*/src/**/*.rs` file under <checkout>
(default: the current directory) that are not test code, and prints the
total. Each named <file> (a path relative to <checkout>) also gets its own
line. A file is cut at `#[cfg(test)] mod tests`; every other `#[cfg(test)]`
item (one-line or brace-balanced) is dropped, and test-only module files
(`#[cfg(test)] mod dense;` -> `placement/src/dense.rs`) are skipped. Cutting
at the *first* `#[cfg(test)]` instead would silently drop everything below a
test-only accessor.
"""
import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else '.')
files = sorted(root.glob('crates/*/src/**/*.rs'))
skip = set()
for f in files:
    ls = f.read_text().splitlines()
    base = f.parent if f.name in ('lib.rs', 'main.rs', 'mod.rs') else f.parent / f.stem
    for a, b in zip(ls, ls[1:]):
        m = re.match(r'\s*(pub(\(crate\))? )?mod (\w+);', b)
        if a.strip() == '#[cfg(test)]' and m:
            skip |= {base / f'{m[3]}.rs', base / m[3] / 'mod.rs'}
per = {}
for f in files:
    if f in skip:
        continue
    ls, keep, i = f.read_text().splitlines(), 0, 0
    while i < len(ls):
        if ls[i].strip() == '#[cfg(test)]':
            if re.match(r'\s*mod tests\b', ls[i + 1]):
                break
            j, depth, opened = i + 1, 0, False
            while True:
                depth += ls[j].count('{') - ls[j].count('}')
                opened |= '{' in ls[j]
                if depth == 0 and (opened or ls[j].rstrip().endswith(';')):
                    break
                j += 1
            i = j + 1
            continue
        keep, i = keep + 1, i + 1
    per[str(f.relative_to(root))] = keep
for k in sys.argv[2:]:
    print(k, per.get(k))
print('total', sum(per.values()))
