/**
 * @file
 * detlint CLI: the shared linter CLI over detlint's rule set. See runCli in
 * lint.hh for usage and exit codes.
 */

#include "detlint.hh"

int
main(int argc, char **argv)
{
    return memsec::lint::runCli(memsec::detlint::ruleSet(), argc, argv);
}
