/*
 * awk -- a pattern-matching text processor, after the Table 1 entry: a
 * regular-expression subset engine driving per-line actions.
 *
 * Input format: the first lines, up to a line containing only "%%",
 * are rules of the form
 *
 *     /regex/ action
 *
 * where action is one of "print" (echo matching lines), "count"
 * (count matches), or "sum" (add up the first integer on each
 * matching line).  The remaining lines are the data.
 *
 * Regex subset: literals, '.', '*' (postfix on the previous atom),
 * character classes "[abc]" and ranges "[a-z]" with negation "[^...]",
 * and anchors '^' and '$'.  Classic backtracking matcher in the style
 * of the one in The Practice of Programming.
 */

#define MAX_RULES 16
#define MAX_REGEX 64
#define MAX_LINE  256

char rule_pattern[MAX_RULES][MAX_REGEX];
int rule_action[MAX_RULES]; /* 0=print 1=count 2=sum */
long rule_count[MAX_RULES];
long rule_total[MAX_RULES];
int rule_lines;

int total_lines;

void die(char *msg)
{
    puts(msg);
    exit(1);
}

/* --------------------------------------------------------------- */
/* Regex engine.                                                     */

int match_here(char *pattern, char *text);

/* Does ch belong to the class starting at pattern[0]=='['?  Sets
 * *length to the class's pattern length. */
int match_class(char *pattern, int ch, int *length)
{
    int negated = 0;
    int matched = 0;
    int i = 1;
    if (pattern[i] == '^') {
        negated = 1;
        i++;
    }
    while (pattern[i] != ']') {
        if (pattern[i] == 0)
            die("unterminated character class");
        if (pattern[i + 1] == '-' && pattern[i + 2] != ']' &&
            pattern[i + 2] != 0) {
            if (ch >= pattern[i] && ch <= pattern[i + 2])
                matched = 1;
            i += 3;
        } else {
            if (ch == pattern[i])
                matched = 1;
            i++;
        }
    }
    *length = i + 1;
    return negated ? !matched : matched;
}

/* Length in the pattern of the single atom at pattern[0]. */
int atom_length(char *pattern)
{
    int length;
    if (pattern[0] == '[') {
        int dummy = 0;
        /* Scan to the closing bracket. */
        length = 1;
        if (pattern[length] == '^')
            length++;
        while (pattern[length] != ']') {
            if (pattern[length] == 0)
                die("unterminated character class");
            length++;
        }
        dummy = dummy; /* keep the structure parallel to match_class */
        return length + 1;
    }
    if (pattern[0] == '\\' && pattern[1] != 0)
        return 2;
    return 1;
}

/* Does ch match the single atom at pattern[0]? */
int match_atom(char *pattern, int ch)
{
    int length;
    if (ch == 0)
        return 0;
    if (pattern[0] == '[')
        return match_class(pattern, ch, &length);
    if (pattern[0] == '\\')
        return ch == pattern[1];
    if (pattern[0] == '.')
        return 1;
    return ch == pattern[0];
}

/* Kleene closure: atom* followed by the rest of the pattern. */
int match_star(char *atom, char *rest, char *text)
{
    char *probe = text;
    /* Longest-match first, then backtrack. */
    while (*probe != 0 && match_atom(atom, *probe))
        probe++;
    for (;;) {
        if (match_here(rest, probe))
            return 1;
        if (probe == text)
            return 0;
        probe--;
    }
}

int match_here(char *pattern, char *text)
{
    int length;
    if (pattern[0] == 0)
        return 1;
    if (pattern[0] == '$' && pattern[1] == 0)
        return *text == 0;
    length = atom_length(pattern);
    if (pattern[length] == '*')
        return match_star(pattern, pattern + length + 1, text);
    if (*text != 0 && match_atom(pattern, *text))
        return match_here(pattern + length, text + 1);
    return 0;
}

int regex_match(char *pattern, char *text)
{
    if (pattern[0] == '^')
        return match_here(pattern + 1, text);
    do {
        if (match_here(pattern, text))
            return 1;
    } while (*text++ != 0);
    return 0;
}

/* --------------------------------------------------------------- */
/* Rule handling.                                                    */

int read_line(char *buffer)
{
    int c, length;
    length = 0;
    c = getchar();
    if (c == -1)
        return -1;
    while (c != -1 && c != '\n') {
        if (length < MAX_LINE - 1)
            buffer[length++] = (char)c;
        c = getchar();
    }
    buffer[length] = 0;
    return length;
}

void parse_rule(char *line)
{
    int i = 0, j = 0;
    char action[16];
    if (line[i] != '/')
        die("rule must start with /");
    i++;
    while (line[i] != '/' ) {
        if (line[i] == 0)
            die("unterminated pattern");
        if (j >= MAX_REGEX - 1)
            die("pattern too long");
        rule_pattern[rule_lines][j++] = line[i++];
    }
    rule_pattern[rule_lines][j] = 0;
    i++;
    while (line[i] == ' ')
        i++;
    j = 0;
    while (line[i] != 0 && line[i] != ' ' && j < 15)
        action[j++] = line[i++];
    action[j] = 0;
    if (strcmp(action, "print") == 0)
        rule_action[rule_lines] = 0;
    else if (strcmp(action, "count") == 0)
        rule_action[rule_lines] = 1;
    else if (strcmp(action, "sum") == 0)
        rule_action[rule_lines] = 2;
    else
        die("unknown action");
    rule_lines++;
    if (rule_lines > MAX_RULES)
        die("too many rules");
}

long first_integer(char *line)
{
    int i = 0;
    long value = 0;
    int sign = 1;
    int found = 0;
    while (line[i] != 0) {
        if (isdigit(line[i])) {
            found = 1;
            break;
        }
        if (line[i] == '-' && isdigit(line[i + 1])) {
            sign = -1;
            i++;
            found = 1;
            break;
        }
        i++;
    }
    if (!found)
        return 0;
    while (isdigit(line[i])) {
        value = value * 10 + (line[i] - '0');
        i++;
    }
    return sign * value;
}

void process_line(char *line)
{
    int r;
    total_lines++;
    for (r = 0; r < rule_lines; r++) {
        if (regex_match(rule_pattern[r], line)) {
            rule_count[r]++;
            if (rule_action[r] == 0)
                printf("%d:%s\n", total_lines, line);
            else if (rule_action[r] == 2)
                rule_total[r] += first_integer(line);
        }
    }
}

void print_summary(void)
{
    int r;
    for (r = 0; r < rule_lines; r++) {
        if (rule_action[r] == 1)
            printf("count /%s/ = %ld\n", rule_pattern[r],
                   rule_count[r]);
        else if (rule_action[r] == 2)
            printf("sum /%s/ = %ld (%ld lines)\n", rule_pattern[r],
                   rule_total[r], rule_count[r]);
    }
    printf("lines=%d rules=%d\n", total_lines, rule_lines);
}

int main(void)
{
    char line[MAX_LINE];
    int in_rules = 1;
    while (read_line(line) != -1) {
        if (in_rules) {
            if (strcmp(line, "%%") == 0)
                in_rules = 0;
            else if (line[0] != 0)
                parse_rule(line);
        } else {
            process_line(line);
        }
    }
    if (rule_lines == 0)
        die("no rules");
    print_summary();
    return 0;
}
